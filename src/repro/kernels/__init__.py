"""Vectorized batch kernels behind the ``engine`` knob.

Flow generation is already columnar and never runs these kernels
(captures have no engine knob), but the packet-level subsystems (flow
meter, DPI sniffers, simulator event scheduling) run per-packet
python loops. This package provides numpy batch kernels for those hot
paths, selected by ``engine="vectorized"``; the
per-packet python implementations stay the *determinism oracle* — a
kernel either produces bit-identical observable state or detects the
shapes it cannot handle and falls back to the oracle before mutating
anything, so ``--engine`` can never change a digest.

Modules
-------
``repro.kernels.sniff``
    Batch protocol sniffers over a payload-prefix matrix, mirroring
    ``repro.protocols.{tls,dns,http,quic,rtp}.looks_like_*`` byte for
    byte.
``repro.kernels.flow``
    ``process_packet_batch`` — the batched flow-metering kernel used
    by :class:`repro.flowmeter.meter.FlowMeter` when constructed with
    ``engine="vectorized"``.

The engine knob (``packet-sim``/``mixed-sim --engine``,
``FlowMeter(engine=...)``) is *execution policy, not content*: every
test that sweeps engines asserts records identical to the python
path.
"""

from __future__ import annotations

#: The recognised execution engines, in oracle-first order.
ENGINES = ("python", "vectorized")


def resolve_engine(engine: str) -> str:
    """Validate an ``engine`` knob value and return its canonical form.

    Accepts the names in :data:`ENGINES` (case-insensitive, stripped);
    anything else raises ``ValueError`` naming the valid choices so a
    typo fails at configuration time, not mid-capture.
    """
    if not isinstance(engine, str):
        raise ValueError(f"engine must be a string, got {engine!r}")
    canonical = engine.strip().lower()
    if canonical not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}"
        )
    return canonical
