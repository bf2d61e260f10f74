"""Output bytes pinned across commits.

Every ``--out`` file the CLI writes at fixture defaults with ``--seed 42``,
in both formats, must hash to the value recorded here.  A refactor that
changes any byte of a report, record stream, sweep table or generated book
fails this test; a deliberate format change re-records the table.
"""

import hashlib

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


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", COMMANDS)
def test_out_bytes_match_golden(command, fmt, tmp_path):
    out = tmp_path / f"{command}.{fmt}"
    assert main([command, "--seed", "42", "--format", fmt, "--out", str(out)]) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written, "no --out file written"
    for name in written:
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == GOLDEN[name], name
