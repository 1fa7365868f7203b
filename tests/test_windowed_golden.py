"""Windowed-generation golden anchor.

Pins a SHA-256 over all 23 columns of every (shard, window) frame that
a six-window streaming capture generates, on five scenarios: the GEO
baseline, the time-varying LEO source, the video-session workload,
heavy growth, and a ``traffic.*`` override mix (category weight, an
empirical flow count, a Pareto and a mixture size). Each cell draws
from the same ``spawn_window_seed`` stream ``repro stream`` uses, so a
change to draw order, draw sizes or float expression grouping anywhere
in windowed generation moves a digest here.

The digests were recorded from the per-chunk generator, before the
draw-phase/arithmetic-phase restructuring (DESIGN §7).
"""

import hashlib

import numpy as np
import pytest

from repro.analysis.dataset import _ARRAY_FIELDS
from repro.parallel import spawn_window_seed
from repro.scenario import get_scenario
from repro.stream.producer import plan_windows

#: 80 customers in 2 shards, six 1-day windows: 12 frames per scenario.
_SIZE = {
    "population.n_customers": 80,
    "workload.n_shards": 2,
    "workload.days": 6,
    "workload.seed": 13,
}

_CASES = {
    "baseline-geo": ("baseline-geo", {}),
    "leo-starlink": ("leo-starlink", {}),
    "video-streaming": ("video-streaming", {}),
    "heavy-growth": ("heavy-growth", {}),
    "traffic-overrides": (
        "baseline-geo",
        {
            "traffic.category_weights.video": 1.5,
            "traffic.flows_overrides.Youtube": "empirical(2.0:0.3,8.0:0.8,20.0:1.0)",
            "traffic.size_overrides.Netflix": "pareto(50000.0,1.3)",
            "traffic.size_overrides.Spotify": (
                "mixture(0.2*weibull(900000.0,0.8),0.8*lognormal(120000.0,1.1))"
            ),
        },
    ),
}

WINDOWED_GOLDEN = {
    "baseline-geo": (
        "35625ccce05ff64100f48793e2df8f025812081664f16d4c87cba7ed8d363460"
    ),
    "leo-starlink": (
        "7ad541593373431cce20dab978b0aed7bba16575084daaa339af09920cdd8082"
    ),
    "video-streaming": (
        "f75212e33bb814d8870c71def2a4967390763dea42cb5f1baccac63ddfead9fb"
    ),
    "heavy-growth": (
        "b92cbb7a4f231ed9f87cf42b22263abf1b1670c3f6bee2b4373f63fe007852f8"
    ),
    "traffic-overrides": (
        "870eeb8fb429007d8158ed1ad311844127322d5157b81824b17d8c9be5cbd56a"
    ),
}


def windowed_digest(scenario_name: str, overrides: dict) -> str:
    """SHA-256 over every (shard, window) frame, all 23 columns."""
    scenario = get_scenario(scenario_name).with_overrides({**_SIZE, **overrides})
    generator = scenario.build_generator()
    windows = plan_windows(generator.config.days, 1)
    digest = hashlib.sha256()
    for shard in generator.shard_plan():
        for window in windows:
            rng = np.random.default_rng(
                spawn_window_seed(
                    generator.config.seed, shard, len(windows), window.index
                )
            )
            frame = generator.generate_shard_days(
                shard, window.day_lo, window.day_hi, rng
            )
            digest.update(f"{shard.index}/{window.index}".encode())
            if frame is None:
                digest.update(b"empty")
                continue
            for name in _ARRAY_FIELDS:
                column = np.ascontiguousarray(getattr(frame, name))
                digest.update(name.encode())
                digest.update(column.dtype.str.encode())
                digest.update(column.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(_CASES))
def test_windowed_generation_matches_golden(case):
    scenario_name, overrides = _CASES[case]
    assert windowed_digest(scenario_name, overrides) == WINDOWED_GOLDEN[case]
