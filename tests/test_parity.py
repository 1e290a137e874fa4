"""Seeded outputs of the sampler, the certificate and the property battery.

``tests/data/parity.json`` holds these outputs as recorded before the set
classes took over the per-set rules from the module-level dispatch. Every
set variant must reproduce them bit for bit. Regenerate the file with
``PYTHONPATH=src python tests/test_parity.py`` only when a change of these
outputs is intended.
"""

import json
import sys
from pathlib import Path

import numpy as np

from hilproj import (
    BochnerConstantSubspace,
    BochnerPointwiseCone,
    ClosedBall,
    DiscreteProbabilitySpace,
    HilbertPoint,
    PositiveCone,
    SubspaceSpan,
    flat_weights,
    project,
    property_battery,
    sample_points,
    variational_certificate,
)

DATA = Path(__file__).with_name("data") / "parity.json"


def _sets():
    space = DiscreteProbabilitySpace(("a", "b", "c"), np.array([0.2, 0.3, 0.5]))
    w = np.array([0.5, 1.0, 2.0, 1.5])
    q = np.linalg.qr(np.random.default_rng(11).standard_normal((4, 2)))[0].T
    return {
        "ball": ClosedBall(HilbertPoint([0.3, -0.2, 0.1, 0.4], w), 1.3),
        "cone": PositiveCone(4),
        "span": SubspaceSpan(tuple(HilbertPoint(u) for u in q)),
        "bochner_cone": BochnerPointwiseCone(space),
        "bochner_constants": BochnerConstantSubspace(space),
    }


def _point(name, s, rng):
    if name.startswith("bochner"):
        return HilbertPoint(rng.uniform(-2.0, 2.0, 6), flat_weights(s.space, 2))
    weights = s.center.weights if name == "ball" else None
    return HilbertPoint(rng.uniform(-2.0, 2.0, 4), weights)


def payload() -> dict:
    out = {}
    for name, s in _sets().items():
        rng = np.random.default_rng(5)
        x = _point(name, s, rng)
        u = project(s, x)
        zs = sample_points(s, 12, rng, include=(u,))
        cert = variational_certificate(s, x, u, samples=64, rng=np.random.default_rng(6))
        out[name] = {
            "samples": [z.coeffs.tolist() for z in zs],
            "certificate": cert["min_inner"],
            "battery": property_battery(s, 60, seed=3),
        }
    return out


def test_outputs_match_the_recorded_ones():
    recorded = json.loads(DATA.read_text())
    now = payload()
    assert now.keys() == recorded.keys()
    for name in now:
        assert now[name] == recorded[name], name


if __name__ == "__main__":
    DATA.write_text(json.dumps(payload(), indent=1) + "\n")
    sys.exit(0)
