"""tools/dump_outputs.py: two dumps of one tree compare equal, and a
flipped sign of zero, a changed value or a missing file is reported;
``jvp_weight_each`` holds one array per weighted node."""
import importlib.util
from pathlib import Path

import numpy as np

from cpajvp import Conv2D, Dense, fixtures
from cpajvp.network import BLOCK_WIDTH

spec = importlib.util.spec_from_file_location(
    "dump_outputs", Path(__file__).resolve().parent.parent / "tools" / "dump_outputs.py")
dump_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(dump_outputs)


def test_a_tree_dumps_the_same_bytes_twice_and_any_change_is_reported(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    n = dump_outputs.dump(a)
    assert len(list(a.glob("*.npz"))) == n
    assert len(list(a.glob("fixture-*.npz"))) == 5 * 4 * 2
    dump_outputs.dump(b)
    assert dump_outputs.compare(a, b) == []
    name = "fixture-mlp-s0-x1.npz"
    with np.load(a / name) as d:
        arrays = dict(d)
    assert {"forward", "jvp", "vjp", "clone.0", "jvp_weight", "affine_rop.a",
            "mc-frob.0.0", "svd.0.values", "record.output", "replay_doubled.linear",
            "replay_doubled.vjp", "replay_leakier", "mc_streamed-frob.0.0",
            "probe_vector.rop", "probe_vector.lop"} <= set(arrays)
    for arch, kind in (("mlp", Dense), ("cnn", Conv2D)):  # one array per Dense or Conv2D node
        nodes = fixtures.generate(arch, 0, 1)[0].nodes
        assert any(isinstance(n.layer, kind) for n in nodes)
        weighted = {f"jvp_weight_each.{n.id}" for n in nodes
                    if isinstance(n.layer, (Dense, Conv2D))}
        with np.load(a / f"fixture-{arch}-s0-x1.npz") as d:
            assert {k for k in d if k.startswith("jvp_weight_each")} == weighted
            assert all(d[k].shape == d["jvp"].shape for k in weighted)
    assert arrays["probe_vector.rop"].shape == (arrays["jvp"].size,)
    assert arrays["probe_vector.lop"].shape == (arrays["vjp"].size,)
    assert arrays["mc_streamed-frob.1"] == BLOCK_WIDTH + 5
    with np.load(a / "probe-reuse-square0.npz") as d:
        assert d["mc_streamed-trace.1"] == BLOCK_WIDTH + 5
    assert str(arrays["replay_leakier"]).startswith("GraphError: frozen state does not belong")
    zeros = arrays["vjp"] * 0.0
    np.savez(a / name, **dict(arrays, vjp=-zeros))  # zeros that differ in sign only
    jvp = arrays["jvp"].copy()
    jvp.flat[0] = np.nextafter(jvp.flat[0], np.inf)
    np.savez(b / name, **dict(arrays, vjp=zeros, jvp=jvp, extra=np.zeros(1),
                              forward=arrays["forward"].astype(np.float32)))
    (b / "fixture-cnn-s0-x1.npz").unlink()
    assert dump_outputs.compare(a, b) == [
        f"fixture-cnn-s0-x1.npz: only in {a}",
        f"{name} extra: only in {b}",
        f"{name} forward: differs",
        f"{name} jvp: differs",
        f"{name} vjp: differs",
    ]
    assert dump_outputs.main(["--compare", str(a), str(a)]) == 0
    assert dump_outputs.main(["--compare", str(a), str(b)]) == 1
