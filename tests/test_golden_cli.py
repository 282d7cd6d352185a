"""Golden CLI bytes: sha256 of stdout (and the exact stderr) of fixed commands.

The digests were frozen from the loop-canonicaliser implementation before the
sweep was vectorised, and those of the gasket n=10 profile (several
`emit.CHUNK_ROWS` chunks) and the angle-form spectral run from the per-field
CSV writers before the column writer replaced them; any change to a profile,
a merged interval union, a product magnitude or a number format shows up
here.  The last four (the baddir scan, the doubling and dist suites, and a
spectral run whose grid is below the small-value scan's 1000 points) were
frozen before the phase function became one `ExpPoly` argument.  The last
six (the blaschke, cetsq, sine and keyobs suites and the l2 and product scans)
were frozen before the never-set keyword parameters of the library became
constants.  The last two (random-3-seed1 and corner4 favard solves) were
frozen before the quadrature moved to the symmetry domain and stay
byte-identical: the random system has no symmetry, so its rule is
unchanged, and corner4's quarter domain keeps a subset of the old nodes and
scales by powers of two.  The gasket n=4 favard digest was refrozen then:
its sixth of the domain puts the nodes at multiples of pi/(3*2^j) rather
than pi/2^j, the same trapezoid sums in exact arithmetic, so the value
moved in the 17th digit (...420475 to ...420464).  The last two (corner4's
baddir scan and slope-form spectral run, whose slope form carries an extra
(a, b) term that no gasket run reaches) were frozen before the slope-free
terms of the slope form were computed once per scale.  The gasket
`scan bootstrap` digest was refrozen when the depth bootstrap began to read
its measures from the support recursion S_n = union of p_l + r S_{n-1}
(`shadow.support_unions`) rather than from full multiplicity profiles: the
recursion projects each map's center once and scales, where the profile
projects every summed piece center, so the measures moved in their 13th-17th
digits (depth 12: 0.33503530752654964 to 0.33503530752634075).  The last
four (buffon at gasket n=26, corner4 n=21, random-3-seed1 n=26 and
random-4-seed5 n=8) were frozen before the needle descent began to prune by
the attractor's radius, so they hold its verdicts at the precision ceiling.
Refreeze only for an intended output change.
"""

import contextlib
import hashlib
import io

import pytest

from favlab import cli

GOLDEN = [
    (
        ["buffon", "--preset", "gasket", "--n", "5", "--trials", "20000", "--seed", "4"],
        0,
        "1986c965ff04acf94ebd4dab27ee318d38287a3d62b622f9d19a083236d87405",
        '',
    ),
    (
        ["buffon", "--preset", "corner4", "--n", "4", "--trials", "20000", "--seed", "4"],
        0,
        "82b9a1df4dbc2e5255bda43adc91f53b4e264cbfa4cc2d874e1eea2d05d8151c",
        '',
    ),
    (
        ["shadow", "--preset", "gasket", "--n", "8", "--theta", "0.7"],
        0,
        "cb0cf2b687a639e7d4080abe6f36d0dff29a22d791c34ab53ee62681df93dc16",
        '',
    ),
    (
        ["shadow", "--preset", "corner4", "--n", "6", "--theta", "0.7853981633974483"],
        0,
        "9c4d8d460099efd0056f8e948a4e43b16d7b6dace494328b3944ae14f2dec5f3",
        '',
    ),
    (
        ["shadow", "--preset", "gasket", "--n", "6", "--theta", "0.5235987755982988"],
        0,
        "f23ec03480b94f327481c221317dea2ce0bc1fe005a572f8075cb42fb0861b81",
        '',
    ),
    (
        ["favard", "--preset", "gasket", "--n", "4"],
        0,
        "7f2d9f9bfb9863fec369cc4e0e7809903bdbe472ee38c8618e4928ae29370c4e",
        '',
    ),
    (
        ["scan", "--check", "bootstrap", "--preset", "gasket"],
        0,
        "972be9fe7215bed9518295b4a0ca5098ef5bcb4231ed03649fc84ebf34ffb520",
        '',
    ),
    (
        ["spectral", "--preset", "gasket", "--t", "0.37", "--n", "8", "--m", "2",
         "--ell", "3", "--grid", "2000", "--threshold", "0.3"],
        0,
        "f2d51373a5fb347a952fbca617ece828063c7e94295000a94accb16b89be62d1",
        'small-value components: 2\n',
    ),
    (
        ["shadow", "--preset", "gasket", "--n", "10", "--theta", "0.77"],
        0,
        "b8671c6bb90251bfd2983211649f0a4604856bae3ef1fdee04bfe876f770f8f7",
        '',
    ),
    (
        ["spectral", "--preset", "gasket", "--theta", "0.3", "--n", "10", "--m", "3",
         "--ell", "6", "--grid", "20000", "--threshold", "0.05"],
        0,
        "570af2485cd81a295ad3b18cdab99b658ebb2632bfa7a075f38b4aa7d83ab928",
        'small-value components: 4\n',
    ),
    (
        ["verify", "--suite", "cover", "--trials", "20", "--seed", "3"],
        0,
        "c00d82802ec91bc6781f12e3e36c6ce20e407dd746cb037d21656e78a17a4248",
        '',
    ),
    (
        ["verify", "--suite", "turan", "--trials", "20", "--seed", "3"],
        0,
        "37f0c8024a952e61ce0d426459ff80934393bcf1ae65a26bc55d597e92551267",
        '',
    ),
    (
        ["scan", "--check", "baddir", "--preset", "gasket", "--m", "2", "--ell", "4",
         "--tau", "0.05", "--t-grid", "50"],
        0,
        "6eb9d00e5fbd8baaf83828144d267b132320586e00a42dd844124991d77de9e7",
        '',
    ),
    (
        ["verify", "--suite", "doubling", "--trials", "30", "--seed", "3"],
        0,
        "b9262308dd6d4617bb1fa768bf98e7dbfa92ea5306cec73c7f70702373ea610b",
        '',
    ),
    (
        ["verify", "--suite", "dist", "--trials", "200"],
        0,
        "e00db718e23b06f4bd039c723330f896bee35838de85bf3eedcf45dc759587e8",
        '',
    ),
    (
        ["spectral", "--preset", "gasket", "--t", "0.37", "--n", "8", "--m", "2",
         "--ell", "3", "--grid", "500", "--threshold", "0.3"],
        0,
        "1d8cb390d5cf24326b16d7f78a6b029a124211e6c848bd10392e6b9a5c0334fc",
        'small-value components: 2\n',
    ),
    (
        ["verify", "--suite", "blaschke", "--trials", "20", "--seed", "3"],
        0,
        "c6fa7239ed2944ac947941ba96453ea912c7da1b63d00e77489537c72bd65cbd",
        '',
    ),
    (
        ["verify", "--suite", "cetsq", "--trials", "5", "--seed", "3"],
        0,
        "10b958ec8ea0815b0ca58f1364c5286c09bfa59a9ef76f2bdb55ff21dde91a8a",
        '',
    ),
    (
        ["verify", "--suite", "sine", "--trials", "1"],
        0,
        "5f2fe95513fb0d6dd8be27d23100943f80c85d58dddea6b39509a9363e382b48",
        '',
    ),
    (
        ["verify", "--suite", "keyobs", "--trials", "1"],
        0,
        "2c223a3bce9c800cd7a3e3b6e0236234bca49fd1420432cc37b2a752554994ca",
        '',
    ),
    (
        ["scan", "--check", "l2", "--preset", "gasket", "--N", "3", "--K", "8",
         "--theta-grid", "32"],
        0,
        "7daa40182c28f1e162e5e7f3d882bf6a63c36cc6b41eee1cacd05f502e0475ed",
        '',
    ),
    (
        ["scan", "--check", "product", "--preset", "corner4", "--N", "3", "--K", "1", "2",
         "--M", "1", "2", "--theta-grid", "16"],
        0,
        "2b3996f44961c448eb0893d27cf31bb8a3ad5adb5e7f86fbd6272d7968973b75",
        '',
    ),
    (
        ["favard", "--preset", "random-3-seed1", "--n", "4", "--grid", "128",
         "--refine-limit", "3", "--target-rel-error", "1e-4"],
        0,
        "8b172562c94797bc654d5db4c02aedff9eebe077c1f11dd0435100ef2e32d3bb",
        '',
    ),
    (
        ["favard", "--preset", "corner4", "--n", "4", "--grid", "128",
         "--refine-limit", "3", "--target-rel-error", "1e-3"],
        0,
        "aee6dd9c60f0d8af02d86f7d6265dcdb83fe3af9a13a9a2cd7cab09ce28246c9",
        '',
    ),
    (
        ["scan", "--check", "baddir", "--preset", "corner4", "--tau", "0.05", "--m", "2",
         "--ell", "4", "--t-grid", "50"],
        0,
        "fedd1b10221f90149ef80dcde375bcfffb7a2c60e2e25477f3e411d8cda39404",
        '',
    ),
    (
        ["spectral", "--preset", "corner4", "--t", "0.41", "--n", "7", "--m", "2",
         "--ell", "3", "--grid", "2000", "--threshold", "0.3"],
        0,
        "396ea3dc33b8c96781cfca90726661b46fd2ba0f0a69a7eb3c036af1c67d765f",
        'small-value components: 2\n',
    ),
    (
        ["buffon", "--preset", "gasket", "--n", "26", "--trials", "20000", "--seed", "4"],
        0,
        "8c198b992a66ce6d97be3c494aed0f84e83e15e4b2a7ac50ac2ed8c79e7ceb64",
        '',
    ),
    (
        ["buffon", "--preset", "corner4", "--n", "21", "--trials", "20000", "--seed", "4"],
        0,
        "2ced5603965825e970c3ebd7951be271145e3c85529ea5907791d2377f355c8b",
        '',
    ),
    (
        ["buffon", "--preset", "random-3-seed1", "--n", "26", "--trials", "20000", "--seed", "4"],
        0,
        "c8b0509d7f0c2a92fbf3642d0d9047090cef2aab2bfd639c06b4747e6ab7bee6",
        '',
    ),
    (
        ["buffon", "--preset", "random-4-seed5", "--n", "8", "--trials", "20000", "--seed", "4"],
        0,
        "a6eb8e5e3e73e8a97f49f2a6eddea5a7124dcf9a67b1ad323834b09dbe28f906",
        '',
    ),
]


@pytest.mark.parametrize(
    "argv, code, stdout_sha256, stderr",
    GOLDEN,
    ids=["-".join(a for a in g[0] if not a.startswith("--")) for g in GOLDEN],
)
def test_cli_bytes_match_golden(argv, code, stdout_sha256, stderr):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        got = cli.main(argv, stdout=out)
    assert got == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == stdout_sha256
    assert err.getvalue() == stderr


def test_shadow_out_file_bytes_equal_stdout(tmp_path):
    argv = ["shadow", "--preset", "corner4", "--n", "7", "--theta", "0.3"]
    out = io.StringIO()
    assert cli.main(argv, stdout=out) == 0
    path = tmp_path / "profile.csv"
    assert cli.main(argv + ["--out", str(path)], stdout=io.StringIO()) == 0
    assert path.read_bytes() == out.getvalue().encode()
