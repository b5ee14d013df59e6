"""The workflow's CLI byte checks, run in process through ``cli.main``.

Each test is one step of ``.github/workflows/tests.yml``, with its commands,
file counts, sha256 digests and ``cmp`` pairs copied verbatim, so the bytes
those steps pin are checked by every tier-1 run.
"""

import hashlib

import pytest

from germsim.cli import main


@pytest.fixture
def run(tmp_path, monkeypatch):
    """``germsim ARGS`` in ``tmp_path``, which must exit 0 as under ``bash -e``."""
    monkeypatch.chdir(tmp_path)

    def germsim(args):
        assert main(args.split()) == 0, args
    return germsim


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


BOUQUET_TWO_CHUNKS = {
    "M/branch_00000_theta0.csv": "72b5a686fcc171df4a768ded181306527e78a54537ea16a900c14ed963de8af2",
    "M/branch_00000_theta1.csv": "bb709c9147ec52c4fca478c151d537269842264d208dea6ef2203a5a0f23c8c1",
    "M/branch_00001_theta0.csv": "bd7840166880fb058257438cd7e30f0b6b3ac08db83c3138045e4fea9b3d76f1",
    "M/branch_00001_theta1.csv": "4f0b9adc71515d077efcbb48972f477446b3e39480f62a77895caf34960b7a28",
    "M/branch_00002_theta0.csv": "1d307f7c0e0305f7fc430ca9a74b7c0aa30381233441c4d07a31f87754d2fbfb",
    "M/branch_00002_theta1.csv": "b995cbefdb144f4fb57bd9c0a367e6b5a49e38c7e74d13c62fdf6d607af58b9a",
    "M/frag_process_00000.csv": "ce351a685e7f7a7c2fdb51cde2841bd53c494905393ee6c9bffb82e8827a3b62",
    "M/frag_process_00001.csv": "ecd6168bca645487aed3d1c11b53f3f6448127cec48b25bfc472efa785e5fdde",
    "M/frag_process_00002.csv": "beaa02b6ef0c95ca43c82526dd46f0c5490e93c4d88c917f73930e064b21c0c7",
    "M/manifest.json": "3534caf5e58ded793789a02ce6c54b1a9b1cf4035f30af52465c3a41a0cb969f",
    "M/stem_00000.csv": "af16e7d18c23650ffe59f2a5fd0e60928042106921280c6598b5af7718568c82",
    "M/stem_00001.csv": "bd7840166880fb058257438cd7e30f0b6b3ac08db83c3138045e4fea9b3d76f1",
    "M/stem_00002.csv": "f77df3a3868086d130caff4190a08bf6319ef83b0e9817a6247058d9a126d9f2",
}


def test_bouquet_bytes_over_two_chunks(run, tmp_path):
    # Rows of 16,001 words come two to a chunk, so the three paths take
    # two chunks; every drift couples the same row of words.
    run("bouquet --seed 0 --paths 3 --steps 16000 --horizon 10 --thetas 0.5,2 --out M")
    assert len(list((tmp_path / "M").iterdir())) == 13
    assert {name: _sha256(tmp_path / name) for name in BOUQUET_TWO_CHUNKS} == BOUQUET_TWO_CHUNKS


def test_fragmentation_process_matches_bouquet(run, tmp_path):
    # frag-process reports each drift's reflection start, which does not
    # read the uniform.  bouquet reports the same time, or inf where its
    # pair is kept, so the tables agree byte for byte only where no such
    # pair is kept, as at these inputs.  At seed 24, theta = 0.5 fragments
    # at the horizon itself.
    args = "--seed 0 --paths 2 --steps 64 --horizon 4 --thetas 0,0.5,2"
    run(f"bouquet {args} --out B")
    run(f"frag-process {args} --out F")
    args = "--seed 24 --paths 1 --steps 4 --horizon 4 --thetas 0.5,2"
    run(f"bouquet {args} --out B24")
    run(f"frag-process {args} --out F24")
    for a, b in (("B/frag_process_00000.csv", "F/frag_process_00000.csv"),
                 ("B/frag_process_00001.csv", "F/frag_process_00001.csv"),
                 ("B24/frag_process_00000.csv", "F24/frag_process_00000.csv")):
        assert (tmp_path / a).read_bytes() == (tmp_path / b).read_bytes(), a
