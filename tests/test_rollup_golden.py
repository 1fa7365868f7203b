"""Rollup fold golden anchor.

Pins :meth:`StreamRollup.state_digest` after every fold of a streaming
capture, on the five scenarios of the windowed-generation goldens (the
GEO baseline, the time-varying LEO source, the video-session workload,
heavy growth and a ``traffic.*`` override mix), plus a ``window_days=3``
capture, a single-shard fleet partition and a one-shot frame folded
through ``StreamRollup.for_frame(f).update(f)``.

The generated frames are pinned by ``test_windowed_golden``; these
digests pin what the fold makes of them. A change to a slot, to the
order of a float reduction or to a grouping permutation anywhere in
``StreamRollup.update`` moves a digest here.

The digests were recorded from the fold as it stood before the
one-pass rewrite (DESIGN §8).
"""

import pytest

from repro.scenario import get_scenario
from repro.stream.producer import WindowedProducer
from repro.stream.rollup import StreamRollup

#: 80 customers in 2 shards over six days (as the windowed goldens).
_SIZE = {
    "population.n_customers": 80,
    "workload.n_shards": 2,
    "workload.days": 6,
    "workload.seed": 13,
}

_OVERRIDES = {
    "traffic.category_weights.video": 1.5,
    "traffic.flows_overrides.Youtube": "empirical(2.0:0.3,8.0:0.8,20.0:1.0)",
    "traffic.size_overrides.Netflix": "pareto(50000.0,1.3)",
    "traffic.size_overrides.Spotify": (
        "mixture(0.2*weibull(900000.0,0.8),0.8*lognormal(120000.0,1.1))"
    ),
}

#: case -> (scenario, overrides, window_days, shard subset or None)
_CASES = {
    "baseline-geo": ("baseline-geo", {}, 1, None),
    "leo-starlink": ("leo-starlink", {}, 1, None),
    "video-streaming": ("video-streaming", {}, 1, None),
    "heavy-growth": ("heavy-growth", {}, 1, None),
    "traffic-overrides": ("baseline-geo", _OVERRIDES, 1, None),
    "window-days-3": ("baseline-geo", {}, 3, None),
    "shard-subset": ("video-streaming", {}, 1, (1,)),
}

#: case -> state digest after each fold, in window order.
FOLD_GOLDEN = {
    "baseline-geo": [
        "5f2be27c7eb53a2df08c3a757da9abbf2664b3eb152d1a54f9d1a97efb35f82e",
        "f38ba5dccaec7c554a7d14947cae9493a900840c8e549ab5fe2b6fb2bb715a18",
        "2f6630f3a568dd294fd4abca458bd5451c3e63ffd6d21943a06b19e0d2245ee8",
        "8a8ce36e3c05ec1dd51ad15165ea272a43597dded83e4c4304cf325d53495bfc",
        "35ed7204aacdba17fa494b0c805be8d208c9f513d90431e6a5e2d862399d2e92",
        "450ece6c5a3958a951d22dd2c64bb45fa9274ac4893b839051567ee485047ac3",
    ],
    "heavy-growth": [
        "f0c05eb05f7c7f9c037d3160ee520e2dfb298cf556312a9d3fa7b9d788f76fea",
        "be5f11003e367344a743fc2b1355988814ac342b1d823306794f57757e347189",
        "3560138394e9d69751f82e3833aa871dd930a6d70fd3b4a77df303a981324bfc",
        "5e42cf0bcd2200ccae9f6b956fd36ff8a55a8371607d29912e61dda4e7b786e5",
        "633ce38aece4a20529e58f94a56ceb8577319ea2514e0f8095b7a87eae82d1c6",
        "00b35cbbc0688b3280535e1db8e7039cd498a6aecd47b3d7fbd050045c07e2b9",
    ],
    "leo-starlink": [
        "b72275d3303932a784e7aa5ecc7b5706e3c8b1a31adb2567b4af76ce6e88fb35",
        "eacd385c9043051cbb872e404ebed3bd80eb673d79072d6d082201f701f28407",
        "538fb6779042b1a8df4d1ac1c8b3696502d378742f96090c94af6609cf23c339",
        "4022ab542e0a3eaf62d85085bdea7d9ab008f310c8538e4e5a93802e8dbbae07",
        "af6ab710793673ecce0a94ad41f2a4125774c9979188d155fee29a1aacad9f12",
        "4656e7fbae6dae8a12587455855838ae2bdfb2a7d27c183de7b43aaa46ec7a38",
    ],
    "shard-subset": [
        "1977d848cea8bc1d63ddcfa6e6ed46e817530e0b6750dadad7a68bf7a08b8344",
        "c709aa58222d6720f825fcbccc32625dde4ef7afeaacef7acd22c5da421f09e3",
        "8c747ef4c71d70f53b783dbaedecc757f50198fcc909cc36a26fe964e26a23e4",
        "480c518a9f57c24ffac5c37817768d544a0a547322a78b476d684e123c6b1267",
        "de29a2cacc7ca8e448ae855c8b1fbf94665d0f93780207a97575d8907ad78c8a",
        "57d7957c8b39df8c4f78f3c65b17a4dfffb7ad4a8cf2037c9700267f5dda8a48",
    ],
    "traffic-overrides": [
        "f9eab3f205bf59eaa497f8ed39e5e25f87bf70948e47ad1477b72f48c4112260",
        "b6ab7ddf92905ec0f05dc9496f7700fb46a755acb764ad454729221252552b39",
        "7899df8a952be23524b7c376605c80d2309257c12a8d955289aab4a30a1d52f7",
        "46e32dfcd668766246b6c0cde2c15aeaa54069531cbd7bdfe532d07be167e64b",
        "3c0460b18262b53a4ebfdb509ba933eb73206ba504b652354c7217c576334f37",
        "afca3b9a169b201d88df66c462bdbf7e82a1350b7aa52e8ab87459dc352c074a",
    ],
    "video-streaming": [
        "3cae1f04b6fcd6a4b605a35691d054652b6b00addabc92f51dddbc9ce3ecaff3",
        "6144e61516e6595fed6e82957ac1ff224a4268d3d6b1a697bcbde3b041ece21e",
        "62e2caf90bf52b7f5ca319c2f4f25ccc9b21f8966ccd4535f686b13a75988cee",
        "dd8a1383c2a2a48a5a9d182a4640a58a0751b1783e28276be8a5fa695e7738b4",
        "3a2d67b29d91a1cdf92827897d36226f04a986727039e4d9963498c75a579809",
        "557ca3f3449a37fa8cbf01d46d2360b202d6e4b19f30ad7b6b201be9fb934415",
    ],
    "window-days-3": [
        "e33c1cb7566f31138b7458fbca38067c6a56bfc8a509044aa19dc8b2a110d2a7",
        "ebb49bc04471a596659ead18e6b9c87a5a4f05fe64bd366eb6006bb402472b7e",
    ],
}

#: The one-shot frame of baseline-geo (40 customers, 2 days, seed 29).
ONE_SHOT_GOLDEN = (
    "500fb4879c735f5ec0e9c50f9c85fd2aa01a1ed31b0690abc9fe1637b05a8af3"
)


def fold_digests(case: str) -> list:
    scenario_name, overrides, window_days, shard_subset = _CASES[case]
    scenario = get_scenario(scenario_name).with_overrides({**_SIZE, **overrides})
    generator = scenario.build_generator()
    shards = generator.shard_plan()
    if shard_subset is not None:
        shards = [shards[i] for i in shard_subset]
    producer = WindowedProducer(generator, window_days, shards=shards)
    rollup = StreamRollup(
        generator.countries_pool, generator.services_pool, generator.resolvers_pool
    )
    digests = []
    for _, frame in producer.iter_windows():
        rollup.update(frame)
        digests.append(rollup.state_digest())
    return digests


def one_shot_digest() -> str:
    scenario = get_scenario("baseline-geo").with_overrides(
        {
            "population.n_customers": 40,
            "workload.days": 2,
            "workload.seed": 29,
        }
    )
    frame = scenario.build_generator().generate()
    return StreamRollup.for_frame(frame).update(frame).state_digest()


@pytest.mark.parametrize("case", sorted(_CASES))
def test_fold_matches_golden(case):
    assert fold_digests(case) == FOLD_GOLDEN[case]


def test_one_shot_fold_matches_golden():
    assert one_shot_digest() == ONE_SHOT_GOLDEN


def test_golden_folds_are_nontrivial():
    """Every pinned fold sees flows, and each fold moves the digest."""
    for case, digests in FOLD_GOLDEN.items():
        assert len(set(digests)) == len(digests), case
    assert len(FOLD_GOLDEN["window-days-3"]) == 2
    assert len(FOLD_GOLDEN["baseline-geo"]) == 6
