"""Output bytes pinned across commits.

Every ``--out`` file the CLI writes at fixture defaults, in both formats,
must hash to the value recorded here, and ``cone`` must print and write the
volumes recorded here.  ``sweep`` and ``gen``, the commands that draw a
population and so take ``--seed``, run with ``--seed 42``.  A refactor that
changes any byte of a report, record stream, sweep table or generated book
fails this test; a deliberate format change re-records the table.
"""

import contextlib
import hashlib
import io

import pytest

from matchbook.cli import main

GOLDEN = {
    "exp1.csv": "f6c313c71e8ed85f7f2930a2c864a970708e29b208315eb014bedba563066603",
    "exp1.json": "e5d7bf080e524636e44c25d5c3e5ed571840f9f73a07d853490ac0866e62eb2f",
    "exp2.csv": "80587e8ecd9ba4584833dc3423139c85a36b8d94941081236c73bae3b1cccc5f",
    "exp2.json": "629ff5ba47b8ada8b41026f0e53591aa0df954e7664be63acbb4938bcc798da1",
    "exp3.csv": "e2de0911055705375983c3af88ba0b743289796661050d466369badb92aa6f8b",
    "exp3.json": "495aea82305a06d63d02b9ccb22915c47eb5fcee67d495e8bd4ae4b3dfd6adf2",
    "exp4.csv": "b00d8e57680ed20ccf43b9277a988e65619a90705be3ace01218ac5d0afd5963",
    "exp4.json": "37be0132f25caa4653424de96415eb2f99da020b0c35ba637e1ea016f787d99f",
    "exp5.csv": "0629bc4749e437f8ee2271cbbc993382eed0e5415a79046ea807657a4ccab22f",
    "exp5.json": "1b5a81217d468796b30bb3832927347b76d4a431d50c4fe397b59a5d327e331b",
    "appendix-a.csv": "322f6ed338728bee84170311d5ec00dc0d0e495c5eee0d9b2c6a4ecc8c772e45",
    "appendix-a.json": "ecdc7b979b25172b14cfeb4303f6260117d01ec4ee2efe886cdb0a7247da4c3b",
    "sweep.csv": "a594b6d9e1775e27b8476dd312670d25a6b137c5f4c40852a0bff1b46992a4cd",
    "sweep.json": "d9828de4458612e6bfb7464657b2e00e58821bc2a8de3ff95cfe6124cac2ab15",
    "gen.csv": "29d930e206e9e6ce119e5ef31ce91df95344285e8bb7a119f7e0cc11dc4a71fc",
    "gen.csv.meta.json": "045ca1e9218aa3a186b7b46415c720a90d373652d0e42e6078272675f4c1a4d6",
    "gen.json": "ff449e7f0a2f5e8aecc2e4accd2ca27b7dce9798c8d559e9a6fa8f8be62d20a7",
    "gen.json.meta.json": "045ca1e9218aa3a186b7b46415c720a90d373652d0e42e6078272675f4c1a4d6",
}

COMMANDS = ["exp1", "exp2", "exp3", "exp4", "exp5", "appendix-a", "sweep", "gen"]


def seed(command):
    """``--seed 42`` for the commands that take it."""
    return ["--seed", "42"] if command in ("sweep", "gen") else []


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", COMMANDS)
def test_out_bytes_match_golden(command, fmt, tmp_path):
    out = tmp_path / f"{command}.{fmt}"
    assert main([command, *seed(command), "--format", fmt, "--out", str(out)]) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written, "no --out file written"
    for name in written:
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == GOLDEN[name], name


#: Paths the fixture defaults never take: exp5's hold branch (nothing
#: commits at 0.9), a shock that lowers the ask, a sweep whose executed
#: points fill the post_theta and regret columns, an exp3 bid priced by the
#: default compensation rule (elasticity 0.05, cap 20), and a sweep on a
#: decay schedule with the default floor.
GOLDEN_OVERRIDES = {
    ("exp5", "commit_threshold=0.9", "csv"): "b00b6568dee8abb04fad23d0f881dc322a0736652b20bfa847739866af3917d5",
    ("exp5", "commit_threshold=0.9", "json"): "c17577a6bc5ecbbdf780265db74d6619ad90fc169dc69c7c3498bb45b752e8b2",
    ("exp5", "shock_factor=0.9", "csv"): "46c4f19a97e565fd79b983b6f2100dbc0c93625045ed190a7ed3d0ed4e633b8a",
    ("exp5", "shock_factor=0.9", "json"): "fa1f3f867544a864c991638dc825aa86227c83810b918e5f46a0efa330ccdda9",
    ("sweep", "shock_factor=1.2", "csv"): "f1a695ea7e048ac6fc9d608f68f1d3488d9bffeb79e6a6cc52a86defc2b97a19",
    ("sweep", "shock_factor=1.2", "json"): "192385caef7fe88ef609a2765a5968080ec92c03a12ceeff1a2806df1b5c5b52",
    ("exp3", "c=500", "csv"): "198de180c5019e8c4cf6f7bc6b19c2c3c77c2caa2d5eef973d54a0bc016cbdcb",
    ("exp3", "c=500", "json"): "66a9c2c3f344fd41bd7eb383c1509e1134fa564e9e35f14df9119c206876ea9a",
    ("sweep", "lambda=0.5", "csv"): "7ad347f739fc321e77dcf129786a480f6846685da0d3c908a0e14291b9736e1a",
    ("sweep", "lambda=0.5", "json"): "c44f4eea581226b440a262d1c48d481c59c88940741de7987441995ad88a4974",
}


@pytest.mark.parametrize("command, override, fmt", list(GOLDEN_OVERRIDES), ids=str)
def test_override_bytes_match_golden(command, override, fmt, tmp_path):
    out = tmp_path / f"{command}.{fmt}"
    argv = [command, *seed(command), "--format", fmt, "--override", override, "--out", str(out)]
    assert main(argv) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN_OVERRIDES[command, override, fmt]


#: ``gen`` at 101 rows, whose ids are three digits wide (c000 ... c100) where
#: the default's are four.
GOLDEN_GEN_101 = {
    "gen.csv": "042cf46e1ce24e76e4159bc3e66e05f5768323e0c4468122e7dd9acdf262e00b",
    "gen.csv.meta.json": "74a475dfff3ec6005163ab8594bbc5a297eefdd15e592dff8addcc84347d2ab4",
    "gen.json": "d1842a982979e5c418b37f4616a02652192230fae478e2544693b2d4531f34f6",
    "gen.json.meta.json": "74a475dfff3ec6005163ab8594bbc5a297eefdd15e592dff8addcc84347d2ab4",
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_configured_gen_bytes_match_golden(fmt, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"population": {"n_candidates": 101}}', encoding="utf-8")
    out = tmp_path / f"gen.{fmt}"
    assert main(["gen", "--config", str(cfg), "--seed", "42", "--format", fmt, "--out", str(out)]) == 0
    for name in (out.name, f"{out.name}.meta.json"):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == GOLDEN_GEN_101[name], name


#: ``cone`` prints the volume's repr and writes the same line to ``--out``.
GOLDEN_CONE = {
    ("uniform", "0.25"): "2.356194490192345\n",
    ("uniform", "0.5"): "1.5707963267948966\n",
    ("linear-cone", "0.25"): "0.44178646693315404\n",
    ("linear-cone", "0.5"): "0.1308996939061197\n",
    ("beta:2,8", "0.25"): "0.9435419954372422\n",
    ("beta:2,8", "0.5"): "0.06135923153751499\n",
}


@pytest.mark.parametrize("profile, h0", list(GOLDEN_CONE), ids=str)
def test_cone_bytes_match_golden(profile, h0, tmp_path):
    out = tmp_path / "cone.txt"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["cone", "--profile", profile, "--h0", h0, "--out", str(out)]) == 0
    assert stdout.getvalue() == GOLDEN_CONE[profile, h0]
    assert out.read_bytes() == GOLDEN_CONE[profile, h0].encode()
