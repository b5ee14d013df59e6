"""The CLI byte contract, run in process through ``cli.main``.

The tests here pin whole CLI runs: the sha256 digest of every file they
write, their file counts, and the byte equality of files that two commands
must write alike.  With the goldens of ``test_cli.py`` and the seed-0
report digests of ``test_batched.py``, they hold each CLI digest once, so a
change that moves these bytes on purpose edits each digest in one place.
"""

import hashlib
import pathlib
import re

import pytest

from germsim.cli import main


@pytest.fixture
def run(tmp_path, monkeypatch):
    """``germsim ARGS`` in ``tmp_path``, which must exit 0."""
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


CSV_ROUND_TRIP = {
    "R/branch_00000.csv": "dd659541adb406ef0ec9bac25f5dc4c49d7a25caa53a67cb7d966650386bafe0",
    "R/branch_00001.csv": "3be5f6a6fcd83a67dcf7ae64803b151231556902e69ac6a767d722e2a3883b16",
    "R/frag_times.csv": "c045aa2c378a76671f9f85d9ea59db6a23d209349720a7dfa30d52604b497254",
    "R/manifest.json": "7342859dffcd3af01a22a17c7196aa4265855e3923323b1f8d8da6bc86b27a78",
    "R/stem_00000.csv": "1aca429a885af2eba62a53cadbe9135af346ee89ee266adc9ce3b128d26219b4",
    "R/stem_00001.csv": "d47304b94287550ebbedfe3409e3f0a82483071d7ada6fcfdfe92a17fb13b4fa",
    "R/transformed.csv": "dd659541adb406ef0ec9bac25f5dc4c49d7a25caa53a67cb7d966650386bafe0",
}

# Files longer than one write_csv block of 4,096 values, as the writers
# produced them when each cell was formatted by its own repr call.
CSV_LONG_FILES = {
    "C/branch_00000.csv": "e9e3de6b2855ad6856a72605e7105b8b7929f0948f97000246e77e6a27e5e9d6",
    "C/branch_00001.csv": "b2027af7073261368a767a3f2a8a3bd078e226b69b2e820f6f3b68dfbcdd1c15",
    "C/stem_00000.csv": "f98bfb944721ce312008e26bdc41d20422b3888a16f1998eaad711bb5b28f467",
    "C/stem_00001.csv": "61b2012bf6f02f95dbb1231e60a462fefea26526f35fcb1c87c9646d26bd0ef5",
    "S/path_00000.csv": "3359986edf47fd0d7722e1d090582203c338f2ac1855d8a07618f53573b21d2e",
    "T.csv": "dd9ea3d4cf5e17e5ef4be620baad4196751008f99fe1fda9b74f2843d8944762",
}

CSV_ROWS_384_385 = {
    "W384/manifest.json": "ab9557691a54b8e990cfc54647f7b44d927083b372d484347616bba109af6ace",
    "W384/path_00000.csv": "480d25b7db5336d42e8817a352a3253c62484eefc273fab8ba8fb6e26ebfbf01",
    "W384/path_00001.csv": "ee14474793c17f7b4728407d94cbfb443a28439ca8c34d7f4d164f58fab23902",
    "W385/manifest.json": "6c49587d8dd606297a98718939bb03a64b560eef2380e617cdd5ae447eb0e207",
    "W385/path_00000.csv": "4e40484db60c0c7e3a24478c3ad26f770243a5b02b96efc226ae4913adc07297",
    "W385/path_00001.csv": "91c6384089c909fa37e44f007df4141e5e7572b74262342c55cdd0245b2ec128",
}


def test_csv_round_trip(run, tmp_path):
    # Write a coupled run, transform its first stem back from the file,
    # and check every byte. The transform takes the reflect branch, so
    # its output equals the run's own branch file.
    run("couple --seed 0 --paths 2 --steps 1000 --horizon 10 --theta 2 --out R")
    run("germ-transform --in R/stem_00000.csv --theta 2 --u 0.5 --out R/transformed.csv")
    assert {name: _sha256(tmp_path / name) for name in CSV_ROUND_TRIP} == CSV_ROUND_TRIP
    # A couple run's stems and branches and a sample path reflected by
    # germ-transform, of 10,001 and 15,001 rows.
    run("couple --seed 0 --paths 2 --steps 10000 --horizon 10 --theta 2 --out C")
    run("sample --seed 0 --paths 1 --steps 15000 --horizon 10 --out S")
    run("germ-transform --in S/path_00000.csv --theta 2 --u 0.9 --out T.csv")
    assert {name: _sha256(tmp_path / name) for name in CSV_LONG_FILES} == CSV_LONG_FILES
    # Rows of 384 and 385 words, where stream_words used to switch
    # from a numpy Philox to the C one; the words must not move.
    run("sample --seed 0 --paths 2 --steps 384 --out W384")
    run("sample --seed 0 --paths 2 --steps 385 --out W385")
    assert {name: _sha256(tmp_path / name) for name in CSV_ROWS_384_385} == CSV_ROWS_384_385


@pytest.mark.parametrize("steps", [64, 1000])
def test_sample_matches_couple_stems(run, tmp_path, steps):
    # sample draws its stems as rows and couple one pair per stream, so
    # their stems agree byte for byte, on short and on long rows.
    args = f"--seed 0 --paths 3 --horizon 10 --steps {steps}"
    run(f"sample {args} --out S{steps}")
    run(f"couple {args} --theta 2 --out C{steps}")
    for i in ("00000", "00001", "00002"):
        a, b = f"S{steps}/path_{i}.csv", f"C{steps}/stem_{i}.csv"
        assert (tmp_path / a).read_bytes() == (tmp_path / b).read_bytes(), a


def test_workflow_digests_are_pinned_in_tier_1():
    # A digest the workflow checks must also be pinned by a tier-1 test, so
    # a change that moves those bytes on purpose cannot update one copy only.
    root = pathlib.Path(__file__).resolve().parents[1]
    digest = re.compile(r"\b[0-9a-f]{64}\b")
    workflow = set(digest.findall((root / ".github" / "workflows" / "tests.yml").read_text()))
    tests = set()
    for source in (root / "tests").glob("*.py"):
        tests.update(digest.findall(source.read_text()))
    assert workflow <= tests
