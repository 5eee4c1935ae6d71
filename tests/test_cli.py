import json

import numpy as np
import pytest

from cpajvp import (fixtures, forward, jvp_input, jvp_weight, parse_network,
                    read_tensor, save_network, vjp_input, write_tensor)
from cpajvp.cli import main


@pytest.fixture()
def netdir(tmp_path):
    d = tmp_path / "fix"
    assert main(["gen", "--arch", "mlp", "--seed", "9", "--out", str(d)]) == 0
    return d


def run(args):
    return main([str(a) for a in args])


# ---------------------------------------------------------------------------
# generation

def test_gen_is_byte_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert run(["gen", "--arch", "cnn", "--seed", "4", "--out", d]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert "net.json" in names and "x.ten" in names
    for n in names:
        assert (a / n).read_bytes() == (b / n).read_bytes(), n


def test_gen_inline_mode_has_single_json(tmp_path):
    d = tmp_path / "inline"
    assert run(["gen", "--arch", "rnn", "--seed", "2", "--out", d,
                "--weights", "inline"]) == 0
    names = sorted(p.name for p in d.iterdir())
    assert names == ["net.json", "x.ten"]


# ---------------------------------------------------------------------------
# products

def test_jvp_vjp_round_trip_matches_library(netdir, tmp_path):
    net = parse_network(netdir / "net.json")
    x = read_tensor(netdir / "x.ten")
    u = np.random.default_rng(0).standard_normal(x.shape)
    write_tensor(tmp_path / "u.ten", u)
    out = tmp_path / "jvp.ten"
    assert run(["jvp", "--net", netdir / "net.json", "--x", netdir / "x.ten",
                "--u", tmp_path / "u.ten", "--out", out]) == 0
    assert np.array_equal(read_tensor(out), jvp_input(net, x, u))

    v = np.random.default_rng(1).standard_normal(forward(net, x).shape)
    write_tensor(tmp_path / "v.ten", v)
    out2 = tmp_path / "vjp.ten"
    assert run(["vjp", "--net", netdir / "net.json", "--x", netdir / "x.ten",
                "--v", tmp_path / "v.ten", "--out", out2]) == 0
    assert np.array_equal(read_tensor(out2), vjp_input(net, x, v))


def test_jvp_weight_matches_library(netdir, tmp_path):
    net = parse_network(netdir / "net.json")
    x = read_tensor(netdir / "x.ten")
    target = next(n for n in net.nodes if hasattr(n.layer, "weights"))
    d = np.random.default_rng(2).standard_normal(target.layer.weights.shape)
    write_tensor(tmp_path / "d.ten", d)
    out = tmp_path / "wj.ten"
    assert run(["jvp-weight", "--net", netdir / "net.json",
                "--x", netdir / "x.ten", "--node", target.id,
                "--direction", tmp_path / "d.ten", "--out", out]) == 0
    assert np.array_equal(read_tensor(out), jvp_weight(net, x, target.id, d))


@pytest.mark.parametrize("head", ["narrow", "wide"])
def test_affine_methods_agree(netdir, tmp_path, head):
    # a 1-wide head probes in reverse mode, a (d_in + 3)-wide one forward
    net = parse_network(netdir / "net.json")
    x = read_tensor(netdir / "x.ten")
    net = fixtures.with_dense_head(net, 1 if head == "narrow" else x.size + 3, 0)
    net_json = save_network(net, tmp_path / head)
    a1, b1 = tmp_path / "a1.ten", tmp_path / "b1.ten"
    a2, b2 = tmp_path / "a2.ten", tmp_path / "b2.ten"
    assert run(["affine", "--net", net_json, "--x", netdir / "x.ten",
                "--out-slope", a1, "--out-bias", b1, "--method", "direct"]) == 0
    assert run(["affine", "--net", net_json, "--x", netdir / "x.ten",
                "--out-slope", a2, "--out-bias", b2, "--method", "rop"]) == 0
    sa1, sa2 = read_tensor(a1), read_tensor(a2)
    assert sa1.shape == sa2.shape
    assert np.max(np.abs(sa1 - sa2)) <= 1e-9 * (1.0 + np.max(np.abs(sa1)))
    assert np.max(np.abs(read_tensor(b1) - read_tensor(b2))) <= 1e-12

    fx = forward(net, x)
    recon = sa1 @ x.reshape(-1) + read_tensor(b1)
    assert np.max(np.abs(recon - fx)) <= 1e-9 * (1.0 + np.max(np.abs(fx)))


def test_affine_budget_flag(netdir, tmp_path, capsys):
    code = run(["affine", "--net", netdir / "net.json", "--x", netdir / "x.ten",
                "--out-slope", tmp_path / "a.ten", "--out-bias", tmp_path / "b.ten",
                "--budget", "2"])
    assert code == 2
    assert "budget" in capsys.readouterr().err.lower()


def test_affine_rop_budget_flag(netdir, tmp_path, capsys):
    code = run(["affine", "--net", netdir / "net.json", "--x", netdir / "x.ten",
                "--out-slope", tmp_path / "a.ten", "--out-bias", tmp_path / "b.ten",
                "--method", "rop", "--budget", "4"])
    assert code == 2
    assert "budget" in capsys.readouterr().err.lower()
    assert not (tmp_path / "a.ten").exists()


# ---------------------------------------------------------------------------
# spectral commands

def square_netdir(tmp_path):
    import nets
    from cpajvp import save_network
    net = nets.square_net(3, 8, depth=2)
    d = tmp_path / "sq"
    d.mkdir()
    save_network(net, d)
    write_tensor(d / "x.ten", np.random.default_rng(5).standard_normal(8))
    return d


def test_eigen_square_writes_descending_values(tmp_path, capsys):
    d = square_netdir(tmp_path)
    out = tmp_path / "vals.ten"
    code = run(["eigen", "--net", d / "net.json", "--x", d / "x.ten",
                "--k", "2", "--seed", "1", "--max-iter", "500",
                "--out-values", out])
    assert code == 0
    text = capsys.readouterr().out
    assert "values:" in text and "rop_calls:" in text
    lines = dict(line.split(":", 1) for line in text.splitlines() if ":" in line)
    history = [float(r) for r in lines["residuals"].split()]
    assert repr(history[-1]) in lines["iterations"]  # the final residual
    vals = read_tensor(out)
    assert vals.shape == (2,)
    assert vals[0] >= vals[1]


def test_eigen_rejects_rectangular(netdir, capsys):
    code = run(["eigen", "--net", netdir / "net.json", "--x", netdir / "x.ten",
                "--k", "1"])
    assert code == 2
    assert "square" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "-1e-8"])
def test_spectral_commands_refuse_a_tol_no_residual_meets(netdir, capsys, tol):
    code = run(["svd", "--net", netdir / "net.json", "--x", netdir / "x.ten",
                "--k", "1", "--max-iter", "3", f"--tol={tol}"])
    assert code == 2
    assert "tol must be >= 0" in capsys.readouterr().err


def test_svd_writes_triplet_files(netdir, tmp_path, capsys):
    vals = tmp_path / "s.ten"
    left = tmp_path / "u.ten"
    right = tmp_path / "v.ten"
    code = run(["svd", "--net", netdir / "net.json", "--x", netdir / "x.ten",
                "--k", "2", "--seed", "1", "--max-iter", "2000",
                "--out-values", vals, "--out-left", left, "--out-right", right])
    assert code == 0
    s = read_tensor(vals)
    assert s.shape == (2,) and s[0] >= s[1] >= 0.0
    net = parse_network(netdir / "net.json")
    x = read_tensor(netdir / "x.ten")
    assert read_tensor(left).shape == (forward(net, x).size, 2)
    assert read_tensor(right).shape == (x.size, 2)
    out = capsys.readouterr().out
    assert "np.float64" not in out


def test_frobnorm_and_trace(tmp_path, netdir, capsys):
    code = run(["frobnorm", "--net", netdir / "net.json", "--x", netdir / "x.ten",
                "--samples", "200", "--seed", "3"])
    assert code == 0
    assert "estimate" in capsys.readouterr().out

    d = square_netdir(tmp_path)
    code = run(["trace", "--net", d / "net.json", "--x", d / "x.ten",
                "--samples", "200", "--seed", "3"])
    assert code == 0
    assert "estimate" in capsys.readouterr().out

    # trace needs a square map
    code = run(["trace", "--net", netdir / "net.json", "--x", netdir / "x.ten",
                "--samples", "10"])
    assert code == 2


# ---------------------------------------------------------------------------
# bench

def test_bench_csv_and_k_sweep(netdir, tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    code = run(["bench", "--net", netdir / "net.json", "--reps", "10",
                "--warmup", "1", "--seed", "0", "--k-sweep", "1,3",
                "--csv", csv_path])
    assert code == 0
    assert capsys.readouterr().err == ""
    lines = csv_path.read_bytes().decode().split("\r\n")
    assert lines[0] == ("strategy,d_in,d_out,reps,median_s,mean_s,std_s,"
                        "passes_forward,passes_frozen,passes_transposed")
    rows = [ln.split(",") for ln in lines[1:] if ln]
    # two sweep points, three strategies plus a forward baseline each
    assert len(rows) == 8
    assert {r[2] for r in rows} == {"1", "3"}


@pytest.mark.parametrize("output", ["conv", "pool"])
def test_k_sweep_flattens_an_image_output(tmp_path, capsys, output):
    # the sweep's dense head needs a Flatten after a Conv2D or MaxPool output
    import nets
    from cpajvp import Network
    body = nets.tiny_cnn()
    ids = [n.id for n in body.nodes]
    net = Network(body.input_shape, body.nodes[:ids.index(output) + 1], output)
    save_network(net, tmp_path / "net")
    csv_path = tmp_path / "bench.csv"
    assert run(["bench", "--net", tmp_path / "net" / "net.json", "--reps", "10",
                "--warmup", "1", "--seed", "0", "--k-sweep", "1,3",
                "--csv", csv_path]) == 0
    assert capsys.readouterr().err == ""
    rows = [ln.split(",") for ln in csv_path.read_text().splitlines()[1:] if ln]
    assert len(rows) == 8
    assert {(r[1], r[2]) for r in rows} == {("32", "1"), ("32", "3")}
    head = fixtures.with_dense_head(net, 3, 0)
    assert [n.id for n in head.nodes[-2:]] == ["sweep_flat", "sweep_head"]
    assert head.plan.out_shape == (3,)


def test_bench_no_forward_skips_baseline(netdir, tmp_path):
    csv_path = tmp_path / "b.csv"
    code = run(["bench", "--net", netdir / "net.json", "--reps", "10",
                "--warmup", "0", "--no-forward", "--csv", csv_path])
    assert code == 0
    body = [ln for ln in csv_path.read_text().splitlines()[1:] if ln]
    assert len(body) == 3
    assert all(not ln.startswith("forward") for ln in body)


def test_bench_rejects_bad_k_sweep(netdir, capsys):
    assert run(["bench", "--net", netdir / "net.json", "--reps", "10",
                "--k-sweep", "1,zebra"]) == 1
    assert "k-sweep" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit codes

def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["warp"]) == 1
    assert main(["jvp"]) == 1  # missing required flags
    capsys.readouterr()


@pytest.mark.parametrize("command", [
    "", "jvp", "vjp", "jvp-weight", "affine", "eigen", "svd", "frobnorm", "trace",
    "bench", "gen"], ids=lambda command: command or "cpajvp")
def test_help_exits_0(command, capsys):
    assert main(command.split() + ["--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: cpajvp {command}".rstrip())


def test_data_errors_exit_2(tmp_path, netdir, capsys):
    missing = tmp_path / "ghost.json"
    assert run(["jvp", "--net", missing, "--x", netdir / "x.ten",
                "--u", netdir / "x.ten", "--out", tmp_path / "o.ten"]) == 2
    bad = tmp_path / "bad.ten"
    bad.write_bytes(b"JUNKJUNKJUNK")
    assert run(["jvp", "--net", netdir / "net.json", "--x", bad,
                "--u", bad, "--out", tmp_path / "o.ten"]) == 2
    err = capsys.readouterr().err
    assert "magic" in err
    # a path through a regular file, and a regular file as the output directory
    afile = tmp_path / "afile"
    afile.write_text("")
    assert run(["jvp", "--net", netdir / "net.json", "--x", afile / "x.ten",
                "--u", netdir / "x.ten", "--out", tmp_path / "o.ten"]) == 2
    assert run(["gen", "--arch", "mlp", "--seed", "0", "--out", afile]) == 2
    assert capsys.readouterr().err.count("error: ") == 2


def test_non_finite_data_exits_2(tmp_path, netdir, capsys):
    x = read_tensor(netdir / "x.ten")
    x[0] = np.nan
    write_tensor(tmp_path / "nan.ten", x)
    for cmd in (["jvp", "--u", netdir / "x.ten", "--out", tmp_path / "o.ten"],
                ["vjp", "--v", tmp_path / "nan.ten", "--out", tmp_path / "o.ten"],
                ["frobnorm", "--samples", 10]):
        assert run([cmd[0], "--net", netdir / "net.json", "--x",
                    tmp_path / "nan.ten"] + cmd[1:]) == 2
        assert "input contains NaN or inf" in capsys.readouterr().err
    # a bad direction is named as such, not as the input
    assert run(["jvp", "--net", netdir / "net.json", "--x", netdir / "x.ten",
                "--u", tmp_path / "nan.ten", "--out", tmp_path / "o.ten"]) == 2
    assert "error: direction contains NaN or inf" in capsys.readouterr().err
    w = read_tensor(netdir / "fc0_weights.ten")
    w[0, 0] = np.inf
    write_tensor(netdir / "fc0_weights.ten", w)
    assert run(["jvp", "--net", netdir / "net.json", "--x", netdir / "x.ten",
                "--u", netdir / "x.ten", "--out", tmp_path / "o.ten"]) == 2
    assert "NaN or inf" in capsys.readouterr().err
    assert not (tmp_path / "o.ten").exists()


def test_integer_too_large_for_float64_exits_2(tmp_path, netdir, capsys):
    # a 401-digit literal is beyond float64; as a layer scalar and inside
    # an inline weight list it is bad data (exit 2), not a crash (exit 1)
    text = (netdir / "net.json").read_text()
    w = read_tensor(netdir / "fc0_weights.ten").tolist()
    w[0][0] = "HUGE"
    for nid, field, value in [("act1", "leakiness", "HUGE"), ("fc0", "weights", w)]:
        doc = json.loads(text)
        next(n for n in doc["nodes"] if n["id"] == nid)["layer"][field] = value
        (netdir / "net.json").write_text(json.dumps(doc).replace('"HUGE"', "1" + "0" * 400))
        assert run(["jvp", "--net", netdir / "net.json", "--x", netdir / "x.ten",
                    "--u", netdir / "x.ten", "--out", tmp_path / "o.ten"]) == 2
        err = capsys.readouterr().err
        assert f"node {nid!r}" in err and field in err and "float64" in err
    assert not (tmp_path / "o.ten").exists()
