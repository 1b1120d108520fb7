"""Byte-level golden output for fast invocations outside the benchmark set.

Each digest is the sha256 of the stdout of one CLI invocation, recorded
before a refactor or speed-up of the code behind it, so a change of a
single byte of output fails here.  The orbit ids of `flags --orbits` for
(1,2) over F_4 and (1,3) over F_9 equal those of the former scan of the
whole unit group; for (2,2) and (1,1,2) that scan exceeded its budget
and printed "-" for every orbit, and every other column is unchanged.
The SO split digests with F-signs of -1, the two JSON tables and the
orbit outputs for (1,4), (2,3) and (1,1,3) were recorded before the
test-only code moved out of the library.
The X_N listings and the two-extension refusal were recorded before the
spin characters moved to monomial matrices and X_N to direct
generation.
The order-24 and order-8 SL tables, the F_9 spin table and the order-4
JSON table were recorded before the cyclotomic coefficients became
plain integers and the characters element-to-value maps.
The last test pins the two-extension path of the even-generator spin
model, which no CLI invocation reaches with a verified row; its digest
was recorded with the intertwiner found by a search over matrix units
and holds for the intertwiner read off as a Clifford word, T = i^s rho(w)
with w the even word whose conjugation is tau.  The spin tables with
tau nontrivial were recorded with twisted classes closed under every
element of A; they held for the closure under generators and hold for
the classes read off in closed form (one sign parity per element of
the spin model, gcd cosets on Z/m).
The SO split digests at q = 7, 9 and 27 were recorded while `split`
still read its F-signs off orthonormal bases over F_{q^2}; they hold for
the closed form `tables.spin_tau_signs`.
"""

import hashlib
import json

import pytest

from springer import component_groups as cg
from springer import tables as tb
from springer.cli import main

GOLDEN = [
    ("split --group sl --lambda 1,2,3 --q 3", "05fc5219c70c7f9292e4c6fbeabd41fa08114fe6d11a0c7eac1a2833c6577257"),
    ("split --group sl --lambda 2,4 --q 5", "e42cece2c9303e7b4721590ec09afa0c412539ee5f58484e129716e3120da007"),
    ("split --group sl --lambda 1,1,2 --q 9", "ed4fee45df4bb9362a1cf14110b408b915c77e403e3d5fe0f36aef468ba9eb94"),
    ("split --group so --lambda 1,2,2,5 --q 3", "fa3431c9f8e585fd0367ef57c1f485871f9672bec89510e898a85dd2c23e9ff4"),
    ("split --group so --lambda 1,3,5 --q 5", "cbd0cc7a35d750240d12d4944a36bf09a2a620cdf94740807950425e0dd7b4f0"),
    ("flags --group sl --lambda 2,4 --d 2 --q 3", "e0c6362a5823d4305f8d2d0901b5a434d7c075df7b0b97ffe19a266ee6e08971"),
    ("flags --group sl --lambda 1,2 --d 1 --q 2 --orbits", "ee7a3c43b6e71978a8f21404a6e5724793040c7dadf127e8d79954e32ca08e41"),
    ("flags --group so --lambda 1,1,3 --q 5", "5f2f46cdf101bc3bbb36997bf4980cf2a30a8586267d98c2a06087f2e32c28c2"),
    (
        "tables --group spin --N 16 --q 3 --omega 1 --extension plus",
        "97740017cec33bea4df30be42117ff2a4931d816f9267621faf8a65d810f7dca",
    ),
    (
        "tables --group spin --N 16 --q 3 --omega 1 --extension minus",
        "97740017cec33bea4df30be42117ff2a4931d816f9267621faf8a65d810f7dca",
    ),
    ("tables --group spin --N 9 --q 7", "0e89bc6b4a26612b25427ea162ab59938af95eb86c72454847e9a90d08dda7ea"),
    # one lambda' of several (181 flags), an SO plane filter (1 flag), a
    # lambda' of the wrong size (header only), and every lambda' with
    # orbits for (2,2), (1,3) and (1,1,2)
    (
        "flags --group sl --lambda 1,1,2 --lambda-prime 1,1 --d 1 --q 3",
        "e04971ad276fbf5ecc6e408f32b3fcf0614bff1965540139914b2039abb31392",
    ),
    (
        "flags --group so --lambda 1,2,2,5 --lambda-prime 1,1,2,2 --q 3",
        "a772092f37d03f09fac25a6f09f987235337132b1b2ef9ff0c50009512da531d",
    ),
    (
        "flags --group sl --lambda 1,2 --lambda-prime 3 --d 1 --q 3",
        "8db2c4c2b8da26ca02a1f0e6a3abeab84bf9f3ac5918e1c8e9811918b447b507",
    ),
    (
        "flags --group sl --lambda 2,2 --d 1 --q 3 --orbits",
        "c0875938058a9bf8906f1db9cd5050560236e249edf69f5ba6e00d603ac52837",
    ),
    (
        "flags --group sl --lambda 1,3 --d 1 --q 3 --orbits",
        "ef3c4ceaea64c65e49bc9b2c3fbc96b0425164513fca78e822b9649b6daf3352",
    ),
    (
        "flags --group sl --lambda 1,1,2 --d 1 --q 3 --orbits",
        "d06216f4107ffcdc930b2b580108a95f4c2dd76b2dd7c88461939e2d27157383",
    ),
    # F-signs of -1 on the odd-block generators (q = 3 mod 4)
    ("split --group so --lambda 3 --q 3", "e138285db6c3283d1bd1caf9baccca29a676b91220125a0b6abef5e461e5b521"),
    ("split --group so --lambda 1,3,7,9 --q 3", "0b6ac75cbbce6d3902ee37ab1b31f23e638a8f1a7c94d466bb4d693765f2f6f0"),
    # the JSON row serialization
    (
        "tables --group sl --n 12 --q 5 --xi-order 2 --format json",
        "16443c384808c657a0952840404d6fef67a470990c570986515580094aeae051",
    ),
    ("tables --group spin --N 9 --q 7 --format json", "f03cdd87b6912a4d89b0dc00843a34137be3f5b26e749aa9f94aeb3e52cc0d9e"),
    # every lambda' with orbits for three types of size 5
    (
        "flags --group sl --lambda 1,4 --d 1 --q 3 --orbits",
        "c99e2dcf89fb066566db9e7caa4d2e9bd843900cd7b0a48feeedf4a15567de0f",
    ),
    (
        "flags --group sl --lambda 2,3 --d 1 --q 3 --orbits",
        "d65ee36cbd5277fc0e2f155098b001068ba218abb0f6e3a4794264c285b22897",
    ),
    (
        "flags --group sl --lambda 1,1,3 --d 1 --q 3 --orbits",
        "ed8cda29c15cc3239064164a54fb5bc4fbfd1429e7f1071a09371b086c243fe3",
    ),
    # X_N and X~_N listings
    ("xn --N 24", "d5c64c131d74720ff4e68b6ac812d75749744e34bc400429086e9dc656031019"),
    ("xn --N 20 --tilde", "c6e8f4af5b314522b7332ee3ae9109326b1a5af2a6d98977144bdc670bf20ccb"),
    # rings and fields the tables above miss: order 24 and order 8
    # cyclotomics, F_9 spin signs, and a JSON row with fourth roots
    (
        "tables --group sl --n 24 --q 23 --xi-order 12",
        "752a95e32534d8a38d3965585405550b24f5cb6e242695263e1b69bd767dee77",
    ),
    (
        "tables --group sl --n 24 --q 7 --xi-order 8",
        "1c510da0d80db014cd284b2ac196eabb381d79d6552a63b7d79750044efb7536",
    ),
    ("tables --group spin --N 20 --q 9", "47b797005d38eaa584e0101738aa80e7b463619a0526bfadbb5ec64bb130639b"),
    (
        "tables --group sl --n 12 --q 11 --xi-order 4 --format json",
        "d9b586399daaa8ce487cd2a92d7796138218859699cdffa04fa509163197ad13",
    ),
    # F-signs at q = 7 and 27 (-1 on every generator) and at q = 9 (all +1)
    ("split --group so --lambda 3,5 --q 7", "afd5e388566c6f3d0801b8cb2a34ff83a5d7e8cd5ec61b8febb0b19f2e659314"),
    ("split --group so --lambda 1,3,5 --q 9", "8cdba2b2a6624eee0efc19dca052bf063a3d94a588537f6e665653fa846e3dc9"),
    ("split --group so --lambda 2,2,3 --q 27", "87ea1b1fdda7dacfc1aa37a80c7170908a1f7f89b9904258495c3ccea3f048a0"),
    # an order-3 variety, recorded when the d >= 3 cyclic subspaces came
    # from a deduplicated sweep of every generator in ker x^3
    ("flags --group sl --lambda 3,3 --d 3 --q 3", "549219931038c4867c1a8490e05e3e2f0f6744e921e9beb3d44e1796a2fb5632"),
    # recorded while X_N was listed to be counted by defect, the SL table
    # filtered every partition of n, and the spin models were built anew
    # for each class; the spin table prints 75 classes of X_27 from 6
    # shared model sets, with tau nontrivial (plus and minus rows)
    (
        "verify --suite spin-series --N-max 60",
        "25d81d7b101d979feda9a5afd6974d8c39b04e016fde5c067ef9ccd7a3465011",
    ),
    (
        "tables --group sl --n 36 --q 5 --xi-order 3",
        "c246c6b29effb55b99970c284a340f0a1d27d03ca000b213971121743e76d236",
    ),
    ("tables --group spin --N 27 --q 3", "b178809e02827ad5166c9bb6fde09756ad4a7e86d9578f2857a75a9d505161f3"),
    # d = 2 walks, recorded while every cyclic subspace took its own
    # echelon form of a stacked orbit: SL with orbits over F_4, SL over
    # F_16, and the isotropic planes of two SO types
    (
        "flags --group sl --lambda 1,2,2 --d 2 --q 2 --orbits",
        "f5bfc0296c29ef41974a7f031c7c775990f2568e130b884838b73bd3bdf9f4f6",
    ),
    ("flags --group sl --lambda 2,2 --d 2 --q 4", "f81555398c69ce4be3c7134b5ff06a4d9990454c1288ac5330b1f90d358f417b"),
    ("flags --group so --lambda 1,1,3,3 --q 5", "c6c472633c4a19c6b13fe8972dd794dbfdfeb3947de8f007a9e56c1c8a4b56d9"),
    ("flags --group so --lambda 1,2,2,2,2 --q 3", "bb69c4b7d6a4de03dd07534e016995a75a6d98cd2f0d1f213de32860ed215a53"),
    # large fields, recorded while F_q inside F_{q^2} was found by testing
    # every element and its coordinates tabulated (34 s and 233 s then)
    ("split --group sl --lambda 1,2,3 --q 307", "614e589859431fc424380d423bbd71a1e327580e07ab062cb4345a87147e91b4"),
    ("split --group sl --lambda 2 --q 997", "6adfbc22e4bc45711e38819cac6f239ea2ce605bf045dfc48509ab3650306781"),
    # SO forms with repeated and mixed even pairs, recorded while the form
    # was assembled over a block layout of its own rather than the chains
    ("split --group so --lambda 2,2,2,2 --q 5", "185082a78c59238e43b89e54b50bf540be192c61b91dbbe53271bde3162ee9a5"),
    ("split --group so --lambda 1,2,2,4,4 --q 3", "e924290fadcf3e3ad7301a14c396147e04f88574602ebe14226a82ac96148c85"),
    ("split --group so --lambda 4,4,5 --q 9", "4eda6124f10abbae8c9d7e798b40678b2802e9f425cc9a10b805cf18ce5d498e"),
    ("flags --group so --lambda 2,2,4,4 --q 3", "f85904a9e46a6eff8e21301de2b03c37039083fdf9f257ce76f3077b5884ddc0"),
    # W'/W types in characteristic 2 with n = 6, recorded while W'/W was
    # typed by restricting the quotient action and each W' re-checked for
    # a regular V/W'
    ("flags --group sl --lambda 1,2,4 --d 3 --q 2", "73424b195fd7965380ef40d41e875b538ee3c8e35f21e2ef94036099d35229ba"),
    ("flags --group sl --lambda 1,1,2,2 --d 1 --q 2", "4460c97810d3a47a66bf85ca86e49e0d3818b1827c6e4c251fdb664437ee167c"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[a for a, _ in GOLDEN])
def test_cli_stdout_digest(argv, digest, capsys):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_split_so_outside_XN_is_refused(capsys):
    # (3, 3) is an orthogonal Jordan type, but its odd part repeats, so
    # the spin component-group model (and the F-signs) do not exist
    assert main("split --group so --lambda 3,3 --q 3".split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    report = json.loads(captured.err.strip().splitlines()[-1])
    assert report == {"error": "ValueError", "message": "(3, 3) is not in X_N"}


def test_spin_two_extension_refusal(capsys):
    # (1,2,2,2,2,5,7) at q = 3 has a tau-stable character of dimension 2 with
    # tau acting nontrivially, so both extensions exist: without --extension
    # each such class prints the rows of --extension plus, then those of
    # --extension minus; --extension trivial is refused for it
    def run(*extra):
        code = main(["tables", "--group", "spin", "--N", "21", "--q", "3", *extra])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def by_class(out):
        groups = {}
        for line in out.splitlines()[1:]:
            groups.setdefault(line.split("\t")[0], []).append(line)
        return groups

    code, both, err = run()
    assert code == 0 and err == ""
    assert hashlib.sha256(both.encode()).hexdigest() == "859da35d25ed295f43cba7710117e1fb6e27d3ac34a4a1f068acb47896f4f6da"
    plus, minus = (by_class(run("--extension", e)[1]) for e in ("plus", "minus"))
    expected = both.splitlines()[:1]
    for la, lines in plus.items():
        expected += lines
        if lines[0].split("\t")[2] == "plus":
            expected += minus[la]
    assert both.splitlines() == expected
    assert plus["[1, 2, 2, 2, 2, 5, 7]"][0].split("\t")[1:3] == ["neg", "plus"]
    code, out, err = run("--extension", "trivial")
    assert code == 1 and out == ""
    assert err.strip().splitlines()[-1] == (
        '{"error": "ValueError", "message": "two extensions exist; pass extension= one of [\'plus\', \'minus\']"}'
    )


def test_even_generator_extensions_digest():
    # (1,3,7,9) at q = 3: F flips x3 and x4, so both xi(eps) = -1
    # characters are tau-stable and extend through the word intertwiner
    # T = i^s rho(x3 x4)
    lam = (1, 3, 7, 9)
    signs = tb.spin_tau_signs(lam, 3)
    assert signs == (1, 1, -1, -1)
    G = cg.build_spin_gamma(lam, tau_signs=signs)
    doc = []
    for chi in cg.spin_irreducibles(G):
        if cg.is_tau_stable(G, chi):
            for ext in cg.extend_character(chi, G):
                doc.append([chi.label, ext.label, [[list(g), v.serialize()] for g, v in ext.coset_values.items()]])
    assert len(doc) == 4
    digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
    assert digest == "d4dbece9be2891e9743ae8d35a7c7efef40998eced866afb1ef8ac3f1cf4e23b"
