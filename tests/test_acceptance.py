"""End-to-end acceptance checks.

One test per numbered criterion; each prints an [acceptance N] PASS/FAIL
line in the terminal summary.  Every comparison is exact: integers and
Fractions throughout, no tolerances anywhere.
"""

import contextlib
import hashlib
import io
import json
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from subsetcurrents import (
    Alphabet,
    LabeledGraph,
    check_core_graph,
    FiniteSubtree,
    act_on_current,
    act_on_subgroup,
    canonical_key,
    canonical_key_based,
    commensurator,
    core,
    counting_current,
    eval_cylinder,
    finite_index,
    format_word,
    from_generators,
    functional_E,
    functional_rk,
    functional_V,
    intersection_functional_N,
    intersection_number_cosets,
    intersection_number_euler,
    is_automorphism,
    neighborhood_profile,
    occurrence_count,
    parse_word,
    random_reduced_word,
    pushforward_I,
    random_automorphism,
    random_finite_index_cover,
    random_subgroup,
    rank,
    reduced_rank,
    subgroup_generators,
    cli,
)
from subsetcurrents.stallings import core_vertices
from helpers import (
    all_cores,
    brute_force_occurrences,
    c_hat_via_round_graphs,
    current_pair_corpus,
    random_tree_words,
    special_corpus,
    truncated_cyclic_cover,
)

AL2 = Alphabet(2)
AL3 = Alphabet(3)


def sub(*words, alphabet=AL2):
    return from_generators([parse_word(w, alphabet) for w in words], alphabet)


def ucore(h):
    return check_core_graph(core(h))


def pair_corpus():
    """The shared seeded corpus: 100 subgroup pairs at rank 2, 100 at rank 3."""
    out = []
    for alphabet in (AL2, AL3):
        rng = random.Random(1000 + alphabet.rank)
        for _ in range(100):
            h = random_subgroup(rng, alphabet, max_gens=3, max_len=6)
            k = random_subgroup(rng, alphabet, max_gens=3, max_len=6)
            out.append((alphabet, h, k))
    return out


def test_criterion_1_three_route_agreement(acceptance):
    with acceptance(1, "three independent intersection-number routes agree", budget=60):
        for alphabet, h, k in pair_corpus():
            n_euler = intersection_number_euler(ucore(h), ucore(k))
            n_cosets = intersection_number_cosets(h, k)
            n_cylinder = intersection_functional_N(
                counting_current(h), counting_current(k)
            )
            assert n_euler == n_cosets == n_cylinder


def test_criterion_2_strengthened_bound(acceptance):
    with acceptance(2, "intersection number bounded by the reduced-rank product"):
        for alphabet, h, k in pair_corpus():
            n = intersection_number_euler(ucore(h), ucore(k))
            assert n <= reduced_rank(h) * reduced_rank(k)
        for alphabet in (AL2, AL3):
            rng = random.Random(2000 + alphabet.rank)
            for mu, nu in current_pair_corpus(rng, alphabet, 25):
                assert intersection_functional_N(mu, nu) <= functional_rk(
                    mu
                ) * functional_rk(nu)


def test_criterion_3_reduced_rank_functional(acceptance):
    with acceptance(3, "cylinder route recovers the reduced rank"):
        for alphabet in (AL2, AL3):
            rng = random.Random(3000 + alphabet.rank)
            corpus = special_corpus(alphabet) + [
                random_subgroup(rng, alphabet) for _ in range(20)
            ]
            whole = from_generators(
                [(i,) for i in alphabet.letters()], alphabet
            )
            eta_whole = counting_current(whole)
            for h in corpus:
                mu = counting_current(h)
                assert functional_rk(mu) == max(rank(h) - 1, 0)
                assert intersection_functional_N(eta_whole, mu) == functional_rk(mu)


def test_criterion_4_occurrence_oracle(acceptance):
    with acceptance(4, "occurrence counts match brute-force morphism search"):
        rng = random.Random(4000)
        checked = 0
        while checked < 60:
            h = random_subgroup(rng, AL2)
            t = FiniteSubtree(random_tree_words(rng, AL2, depth=3, grows=7))
            if not t.nondegenerate:
                continue
            g = ucore(h)
            assert occurrence_count(t, g) == brute_force_occurrences(t, g.graph)
            checked += 1


def test_criterion_5_component_counts_by_round_graphs(acceptance):
    with acceptance(
        5, "contractible component counts agree with the vertex-pair route", budget=300
    ):
        letters = AL2.signed_letters()
        trees = [
            FiniteSubtree([()] + [(s,) for s in subset])
            for size in range(len(letters) + 1)
            for subset in combinations(letters, size)
        ]
        assert len(trees) == 16
        rng = random.Random(5000)
        pairs = [
            (random_subgroup(rng, AL2), random_subgroup(rng, AL2))
            for _ in range(20)
        ]
        pairs += [
            (sub("aa", "b"), sub("a", "bb")),
            (sub("a"), sub("b")),
            (sub("aab"), sub("a")),
            (sub("ab"), sub("a")),
        ]
        for h, k in pairs:
            hc, kc = ucore(h), ucore(k)
            for t in trees:
                # raises MismatchBugError if the two routes ever disagree
                c_hat_via_round_graphs(hc, kc, t)


def test_criterion_6_covering_scaling(acceptance):
    with acceptance(6, "finite covers scale cylinders, rk and the pairing"):
        rng = random.Random(6000)
        grade1 = [
            FiniteSubtree([()] + [(s,) for s in subset])
            for size in range(2, 5)
            for subset in combinations(AL2.signed_letters(), size)
        ]
        checked = 0
        while checked < 30:
            h = random_subgroup(rng, AL2)
            d = rng.randint(2, 4)
            hc = random_finite_index_cover(h, d, rng)
            assert finite_index(hc, h) == d
            # profile equality at grades 1 and 2 pins down every cylinder
            # value of a tree of depth <= 2, since an occurrence at v is a
            # function of the grade-(depth) neighborhood tree of v
            for r in (1, 2):
                base_profile = neighborhood_profile(ucore(h), r)
                cover_profile = neighborhood_profile(ucore(hc), r)
                assert cover_profile == {
                    t: d * c for t, c in base_profile.items()
                }
            mu, mu_c = counting_current(h), counting_current(hc)
            for t in [FiniteSubtree.edge(i) for i in AL2.letters()] + grade1:
                assert eval_cylinder(mu_c, t) == d * eval_cylinder(mu, t)
            assert functional_rk(mu_c) == d * functional_rk(mu)
            checked += 1
        # bilinear scaling with both factors covered
        for _ in range(10):
            h = random_subgroup(rng, AL2)
            k = random_subgroup(rng, AL2)
            dh, dk = rng.randint(2, 3), rng.randint(2, 3)
            hc = random_finite_index_cover(h, dh, rng)
            kc = random_finite_index_cover(k, dk, rng)
            assert intersection_number_euler(
                ucore(hc), ucore(kc)
            ) == dh * dk * intersection_number_euler(ucore(h), ucore(k))


def test_criterion_7_pushforward_rank_identity(acceptance):
    with acceptance(7, "rk of the pushforward equals the intersection functional"):
        for alphabet in (AL2, AL3):
            rng = random.Random(7000 + alphabet.rank)
            for mu, nu in current_pair_corpus(rng, alphabet, 50):
                pushed = pushforward_I(mu, nu)
                assert functional_rk(pushed) == intersection_functional_N(mu, nu)
        eta_a = counting_current(sub("a"))
        assert pushforward_I(eta_a, eta_a) == eta_a
        for n in (1, 2, 5):
            mu = counting_current(sub("a" * n + "b"))
            assert pushforward_I(mu, eta_a).is_zero


def test_criterion_8_discontinuity_table(acceptance, tmp_path):
    with acceptance(8, "loop-with-tail table converges at rate 1/n, pairing stays 0"):
        out = str(tmp_path / "converge.tsv")
        argv = ["converge", "--n-max", "20", "--grade", "2", "--format", "tsv"]
        assert cli.main(argv + ["--out", out]) == 0
        text = open(out).read()
        # byte determinism of the report
        out2 = str(tmp_path / "converge2.tsv")
        assert cli.main(argv + ["--out", out2]) == 0
        assert open(out2).read() == text

        lines = text.splitlines()
        header = lines[0].split("\t")
        assert header[0] == "n" and header[-2:] == ["N", "pushforward_terms"]
        tree_cols = header[1:-2]
        rows = [line.split("\t") for line in lines[1:]]
        limit_row = rows[-1]
        assert limit_row[0] == "limit"
        by_n = {int(r[0]): r for r in rows[:-1]}
        assert sorted(by_n) == list(range(1, 21))

        # the pairing column vanishes identically, including at the limit
        assert all(r[-2] == "0" for r in rows)
        # the pushforward collapses to zero off the limit and jumps at it
        assert all(by_n[n][-1] == "0" for n in by_n)
        assert limit_row[-1] == "1"

        ea = tree_cols.index("1,a")
        eb = tree_cols.index("1,b")
        for n, r in by_n.items():
            assert r[1 + ea] == "1"
            assert Fraction(r[1 + eb]) == Fraction(1, n)
        assert limit_row[1 + ea] == "1" and limit_row[1 + eb] == "0"

        # every column settles into exact 1/n convergence: for n past the
        # neighborhood horizon, n * (value_n - limit) is one fixed integer
        for j in range(len(tree_cols)):
            limit_value = Fraction(limit_row[1 + j])
            gaps = {
                n * (Fraction(by_n[n][1 + j]) - limit_value)
                for n in range(5, 21)
            }
            assert len(gaps) == 1
            assert gaps.pop().denominator == 1

        # the limit pairing is genuinely nonzero as a current
        eta_a = counting_current(sub("a"))
        assert pushforward_I(eta_a, eta_a) == eta_a
        assert not pushforward_I(eta_a, eta_a).is_zero


def test_criterion_9_automorphism_invariance(acceptance):
    with acceptance(9, "intersection numbers and rk are automorphism invariant"):
        done = 0
        for alphabet, count in ((AL2, 30), (AL3, 20)):
            rng = random.Random(9000 + alphabet.rank)
            for _ in range(count):
                phi = random_automorphism(rng, alphabet, 6)
                h = random_subgroup(rng, alphabet)
                k = random_subgroup(rng, alphabet)
                assert is_automorphism(phi)
                hp, kp = act_on_subgroup(phi, h), act_on_subgroup(phi, k)
                assert intersection_number_euler(
                    ucore(hp), ucore(kp)
                ) == intersection_number_euler(ucore(h), ucore(k))
                mu = counting_current(h)
                assert functional_rk(act_on_current(phi, mu)) == functional_rk(mu)
                done += 1
        assert done == 50


def test_criterion_10_commensurator_contract(acceptance):
    with acceptance(10, "commensurators are idempotent and normalize counting terms"):
        rng = random.Random(10_000)
        cases = []
        for _ in range(10):
            cases.append(("plain", random_subgroup(rng, AL2), None))
        for _ in range(10):
            w = random_reduced_word(rng, AL2, rng.randint(1, 4))
            n = rng.randint(2, 4)
            cases.append(("power", sub_from_word(w * n), (w, n)))
        for _ in range(10):
            base = random_subgroup(rng, AL2)
            d = rng.randint(2, 3)
            cases.append(
                ("cover", random_finite_index_cover(base, d, rng), (base, d))
            )
        for kind, h, extra in cases:
            comm, degree = commensurator(h)
            comm2, degree2 = commensurator(comm)
            assert degree2 == 1
            assert canonical_key_based(comm2) == canonical_key_based(comm)
            assert finite_index(h, comm) == degree
            assert counting_current(h) == counting_current(comm).scale(degree)
            if kind == "power":
                w, n = extra
                assert degree % n == 0
                assert degree >= 2
                root_comm, _ = commensurator(sub_from_word(w))
                assert canonical_key_based(comm) == canonical_key_based(root_comm)
            if kind == "cover":
                base, d = extra
                base_comm, base_degree = commensurator(base)
                assert canonical_key_based(comm) == canonical_key_based(base_comm)
                assert degree == d * base_degree


def sub_from_word(w):
    return from_generators([w], AL2)


def high_rank_pairs(alphabet):
    """Seeded pairs at one rank: random, sharing two generators, covers, F_N."""
    rng = random.Random(12_000 + alphabet.rank)

    def gens(n):
        return [random_reduced_word(rng, alphabet, rng.randint(1, 6)) for _ in range(n)]

    whole = from_generators([(i,) for i in alphabet.letters()], alphabet)
    pairs = []
    for _ in range(4):
        pairs.append((from_generators(gens(3), alphabet), from_generators(gens(3), alphabet)))
    for _ in range(3):
        shared = gens(3)
        pairs.append(
            (from_generators(shared, alphabet), from_generators(shared[:2] + gens(1), alphabet))
        )
    for _ in range(2):
        h = from_generators(gens(2), alphabet)
        pairs.append((h, random_finite_index_cover(h, 2, rng)))
    pairs.append((whole, from_generators(gens(3), alphabet)))
    return pairs


def test_criterion_12_cylinder_route_at_ranks_7_and_8(acceptance, tmp_path):
    with acceptance(12, "all four N routes agree at ranks 7 and 8", budget=5):
        nonzero = 0
        for alphabet in (Alphabet(7), Alphabet(8)):
            for h, k in high_rank_pairs(alphabet):
                mu, nu = counting_current(h), counting_current(k)
                n_euler = intersection_number_euler(ucore(h), ucore(k))
                n_cosets = intersection_number_cosets(h, k)
                n_cylinder = intersection_functional_N(mu, nu)
                n_pushed = functional_rk(pushforward_I(mu, nu))
                assert n_euler == n_cosets == n_cylinder == n_pushed
                nonzero += n_euler > 0
                assert functional_rk(mu) == reduced_rank(h)
                assert functional_rk(nu) == reduced_rank(k)
        assert nonzero >= 10

        def write(name, g, alphabet):
            path = tmp_path / name
            words = subgroup_generators(g)
            path.write_text("".join(format_word(w, alphabet) + "\n" for w in words))
            return str(path)

        out = tmp_path / "report.json"
        for command, alphabet in (("product", Alphabet(7)), ("intersect", Alphabet(8))):
            h, k = high_rank_pairs(alphabet)[4]
            argv = [command, "--rank", str(alphabet.rank)]
            argv += [write("h.txt", h, alphabet), write("k.txt", k, alphabet)]
            assert cli.main(argv + ["--out", str(out)]) == 0
            reported = json.loads(out.read_text())["intersection_number"]
            assert str(reported) == str(intersection_number_cosets(h, k)) == "1"


def test_criterion_13_product_reports_every_component(acceptance, tmp_path):
    with acceptance(13, "product lists 20,384 components of an 8x30 pair", budget=3):
        rng = random.Random(5)
        paths = []
        for name in ("h.txt", "k.txt"):
            words = [random_reduced_word(rng, AL2, 30) for _ in range(8)]
            path = tmp_path / name
            path.write_text("".join(format_word(w, AL2) + "\n" for w in words))
            paths.append(str(path))
        out = tmp_path / "report.json"
        argv = ["product", *paths, "--format", "json", "--out", str(out)]
        assert cli.main(argv) == 0
        text = out.read_text()
        # the report renderer writes what json.dumps would, byte for byte
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        components = json.loads(text)["components"]
        assert len(components) == 20384
        assert sum(c["vertices"] for c in components) == 208 * 210


def test_criterion_15_continuity_at_nonzero_values(acceptance):
    with acceptance(15, "N(mu_n, eta_K) tends to N(eta_G, eta_K) != 0 at rate 1/n"):
        for alphabet in (AL2, AL3, Alphabet(4)):
            rng = random.Random(alphabet.rank)
            rose = from_generators([(i,) for i in alphabet.letters()], alphabet)
            gamma = random_finite_index_cover(rose, 3, rng)
            k = random_finite_index_cover(rose, 4, rng)
            eta_k = counting_current(k)
            # a degree-12 cover of the rose: 12 * (N - 1) edges minus vertices
            limit = intersection_functional_N(counting_current(gamma), eta_k)
            assert limit == 12 * (alphabet.rank - 1)
            both = []  # n^2 * N(mu_n, nu_n), both sides truncated
            for n in range(1, 13):
                h_n = truncated_cyclic_cover(gamma, n)
                mu_n = counting_current(h_n).scale(Fraction(1, n))
                value = intersection_functional_N(mu_n, eta_k)
                # dropping the cut edge in the last sheet drops its 4 lifts to the product
                assert n * value == n * limit - 4
                assert Fraction(intersection_number_euler(h_n, k), n) == value
                assert Fraction(intersection_number_cosets(h_n, k), n) == value
                assert functional_rk(pushforward_I(mu_n, eta_k)) == value
                assert value <= functional_rk(mu_n) * functional_rk(eta_k)
                nu_n = counting_current(truncated_cyclic_cover(k, n)).scale(Fraction(1, n))
                both.append(n * n * intersection_functional_N(mu_n, nu_n))
            # N(H_n, K_n) is quadratic in n with leading coefficient the limit
            steps = [b - a for a, b in zip(both, both[1:])]
            assert {b - a for a, b in zip(steps, steps[1:])} == {2 * limit}
            if alphabet.rank == 2:
                assert both == [12 * n * n - 7 * n for n in range(1, 13)]


def test_criterion_20_every_pair_of_small_cores(acceptance):
    """Every pair of the 92 core classes of rank 2 on at most 3 vertices, a
    core with itself included: the Euler, cosets and cylinder routes agree
    and N <= rr(H) * rr(K), which is attained on 1,409 of the 3,240 pairs
    with a nonzero bound."""
    label = "all 4,278 pairs of rank-2 cores on at most 3 vertices, three routes and the bound"
    with acceptance(20, label, budget=4):
        based = [LabeledGraph(2, g.num_vertices, g.edges, basepoint=0) for g in all_cores(2, 3)]
        etas = [counting_current(h) for h in based]
        rrs = [reduced_rank(h) for h in based]
        pairs = positive = attained = 0
        for i, j in combinations_with_replacement(range(len(based)), 2):
            h, k = based[i], based[j]
            n = intersection_functional_N(etas[i], etas[j])
            assert intersection_number_euler(h, k) == intersection_number_cosets(h, k) == n
            bound = rrs[i] * rrs[j]
            assert n <= bound
            pairs += 1
            positive += bound > 0
            attained += bound > 0 and n == bound
        assert (pairs, positive, attained) == (4278, 3240, 1409)


def test_criterion_21_grade_1_functionals_at_rank_200(acceptance):
    """V, E and rk of one counting current at rank 200, 40 seeded words of
    100 letters (V = 3952 vertices, 3860 distinct departure sets), read in
    one pass per term; one cylinder pass per star took seconds here."""
    alphabet = Alphabet(200)
    rng = random.Random(21)
    words = [random_reduced_word(rng, alphabet, 100) for _ in range(40)]
    mu = counting_current(from_generators(words, alphabet))
    label = "V, E and rk of a rank-200 counting current with 3952 vertices"
    with acceptance(21, label, budget=0.25):
        values = functional_V(mu), functional_E(mu), functional_rk(mu)
    assert values == (3952, 3991, 39)


def _traced_peak(fn, *args):
    """The value of fn(*args) and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        value = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, peak


def test_criterion_22_euler_route_and_word_draws_at_scale(acceptance):
    """The Euler route stores no product edge: on the 8x60 pair of
    acceptance 13's seed the pruning from an edge list and adjacency lists
    peaked at 44.8 MiB, and on <a^5000 b> x <b^5000 a> at 5.4 MiB.  A
    word draw costs O(1) a letter at every rank: with a follower list for
    each signed letter, each word at rank 4096 built 67 million entries."""
    label = "Euler route in bounded memory and shnc-scan at rank 4096 within 1 s"
    with acceptance(22, label):
        rng = random.Random(5)
        h, k = (from_generators([random_reduced_word(rng, AL2, 60) for _ in range(8)], AL2)
                for _ in range(2))
        value, peak = _traced_peak(intersection_number_euler, h, k)
        assert value == 0 and peak < 20 * 2**20
        h = from_generators([(1,) * 5000 + (2,)], AL2)
        k = from_generators([(2,) * 5000 + (1,)], AL2)
        value, peak = _traced_peak(intersection_number_euler, h, k)
        assert value == 0 and peak < 3 * 2**20
        start = time.monotonic()
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(["shnc-scan", "--rank", "4096", "--samples", "5"]) == 0
        assert time.monotonic() - start < 1
        assert len(out.getvalue().splitlines()) == 6


def test_criterion_23_canonical_key_reads_the_rows_as_they_are(acceptance):
    """`canonical_key` reads the `moves()` rows, laid out in the alphabet's
    order, as they are: on a 1000-vertex cycle at rank 500 with seeded
    labels, a copy of the rows permuted into that order, built per key,
    peaked at 19.6 MiB, where the key alone takes 11.9 MiB.  The key bytes
    are pinned by their digest."""
    rng = random.Random(3)
    n = 1000
    g = LabeledGraph(500, n, [(v, (v + 1) % n, rng.randint(1, 500)) for v in range(n)])
    g.moves()
    label = "canonical_key of a 1000-vertex cycle at rank 500 under 15 MiB"
    with acceptance(23, label):
        key, peak = _traced_peak(canonical_key, g)
        assert peak < 15 * 2**20
        assert hashlib.sha256(key).hexdigest()[:12] == "88c880d165ad"


def test_criterion_24_coring_a_long_arc_in_bounded_memory(acceptance):
    """Coring peels leaves with a degree and a neighbour XOR per vertex
    and no adjacency list: on the 100,001-vertex graph of a^100000 b
    a^-100000, `core_vertices` peaked at 4.6 MiB, where per-vertex
    adjacency lists peaked at 9.9 MiB."""
    h = from_generators([(1,) * 100000 + (2,) + (-1,) * 100000], AL2)
    assert h.num_vertices == 100001
    label = "core_vertices of the 100,001-vertex graph of a^100000 b a^-100000 under 6 MiB"
    with acceptance(24, label, budget=1):
        survivors, peak = _traced_peak(core_vertices, h)
        assert survivors == {100000} and peak < 6 * 2**20


def test_criterion_25_a_product_of_400_million_pairs_is_refused(acceptance, tmp_path, capsys):
    """`intersect` and `product` on <a^20000 b> x <b^20000 a>, 400,040,001
    vertex pairs and 40,000 edges, exit 1 and name V1, V2 and the pairs:
    the walks that hold every pair refuse it before they allocate per
    pair, where they died of `MemoryError` under a 1.5 GB address limit."""
    h, k = tmp_path / "h.txt", tmp_path / "k.txt"
    h.write_text("a" * 20000 + "b\n", encoding="utf-8")
    k.write_text("b" * 20000 + "a\n", encoding="utf-8")
    label = "intersect and product on <a^20000 b> x <b^20000 a> refused within 1 s each"
    with acceptance(25, label):
        for cmd in ("intersect", "product"):
            start = time.monotonic()
            assert cli.main([cmd, str(h), str(k)]) == 1
            assert time.monotonic() - start < 1
            err = capsys.readouterr().err
            assert "20001 x 20001 vertices has 400040001 vertex pairs" in err
