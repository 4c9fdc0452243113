"""Answer checks that do not run the code path they check.

Each check returns a list of problems; an empty list means the answer is
accepted.  The checks use the Temperley-Lieb side of the engine (`tl`), the
F_p elimination `homology_mod_p`, cobordism composition and the hand-written
`q3()`, never the simplifier, convolution solver or Smith normal form path
whose answer they judge (the solver check simplifies the solver's output,
which is a different path from the solver itself).
"""

from __future__ import annotations

from catsl2 import cobordism, complexes, homology, projectors, tl
from catsl2.links import cable
from catsl2.series import TruncatedSeries

UCT_PRIMES = (2, 3)


def _window(coeffs, precision: int) -> dict[int, int]:
    return {e: c for e, c in coeffs if c and e <= precision}


# -- projector -------------------------------------------------------------------

def certified_precision(window: int) -> int:
    """q-precision up to which chi(P_n) truncated at `window` equals jw(n)
    (measured: exact through q^14 for P_3 at w = 6, q^26 for P_2 at w = 12)."""
    return 2 * window + 2


def check_projector(window: int, proj) -> list[str]:
    """chi(P_n) = jw(n) up to the certified precision, and the maps exist."""
    n = proj.n
    problems = []
    if sorted(proj.u_maps) != list(range(1, n + 1)):
        problems.append(f"expected P_{n} with u_1..u_{n}, got u={sorted(proj.u_maps)}")
    if proj.unit.tgt is not proj.complex:
        problems.append("unit does not land in the projector complex")
    prec = certified_precision(window)
    # expand with headroom: jw's series lose precision through [k]^-1
    chi = tl.euler_characteristic(proj.complex, prec + 10)
    target = tl.jw(n, prec + 10)
    for m in set(chi.terms) | set(target.terms):
        got = _window(chi.coefficient(m).items(), prec)
        want = _window(target.coefficient(m).items(), prec)
        if got != want:
            problems.append(f"chi(P_{n}) != jw({n}) at {m.pairing} up to q^{prec}")
    return problems


# -- universal coefficients ------------------------------------------------------------

def check_uct(z, groups) -> list[str]:
    """dim H(C; F_p) = rank H + #(p | torsion of H) + #(p | torsion of H^{+1}).

    The differential raises the homological degree, so Tor(H^{h+1}, F_p)
    contributes to degree h.
    """
    problems = []
    for p in UCT_PRIMES:
        dims = homology.homology_mod_p(z, p)
        predicted: dict[tuple[int, int], int] = {}
        for (h, q), (rank, torsion) in groups.groups.items():
            tors = sum(1 for t in torsion if t % p == 0)
            for key, add in (((h, q), rank + tors), ((h - 1, q), tors)):
                if add:
                    predicted[key] = predicted.get(key, 0) + add
        if dims != predicted:
            bad = sorted(k for k in set(dims) | set(predicted)
                         if dims.get(k, 0) != predicted.get(k, 0))
            problems.append(f"F_{p} dimensions disagree with the integer "
                            f"groups at {bad[:4]}")
    return problems


def _chi_by_q(groups) -> dict[int, int]:
    chi: dict[int, int] = {}
    for (h, q), (rank, _) in groups.groups.items():
        chi[q] = chi.get(q, 0) + (-rank if h % 2 else rank)
    return {q: c for q, c in chi.items() if c}


# -- Ext -------------------------------------------------------------------------

def check_ext(z, groups) -> list[str]:
    """UCT against F_2/F_3, and chi of the groups = chi of the HOM ranks."""
    problems = check_uct(z, groups)
    chains: dict[int, int] = {}
    for (h, q), basis in z.groups.items():
        chains[q] = chains.get(q, 0) + (-len(basis) if h % 2 else len(basis))
    chains = {q: c for q, c in chains.items() if c}
    if _chi_by_q(groups) != chains:
        problems.append("chi of Ext differs from the alternating HOM ranks")
    return problems


# -- colored links -----------------------------------------------------------------

TL_PRECISION = 40


def _letter(eps: int, parallel: bool, prec: int):
    """chi of one crossing: sigma resolves e -> 1, its inverse 1 -> e; a
    positive crossing sits in degrees (-1, 0) with q^2, q, a negative one in
    (0, 1) with q^-1, q^-2."""
    one = tl.TLElement.identity(2, prec)
    e = tl.TLElement.generator(1, 2, prec)
    src, tgt = (e, one) if eps > 0 else (one, e)
    mono = lambda k: TruncatedSeries.monomial(k, 1, prec)  # noqa: E731
    if (eps if parallel else -eps) > 0:
        return tgt.scale(mono(1)) - src.scale(mono(2))
    return src.scale(mono(-1)) - tgt.scale(mono(-2))


def _pad(elem, col: int, width: int, prec: int):
    out = elem
    if col:
        out = tl.juxtapose_tl(tl.TLElement.identity(col, prec), out)
    if width - elem.n - col:
        out = tl.juxtapose_tl(out, tl.TLElement.identity(width - elem.n - col, prec))
    return out


def _box(color: int, indices, prec: int):
    """chi of the quasi-projector P_color(indices) with color in indices:
    jw(color) times prod_i (1 - q^(2i))."""
    scale = TruncatedSeries.one(prec)
    for i in indices:
        scale = scale * (TruncatedSeries.one(prec) - TruncatedSeries.monomial(2 * i, 1, prec))
    return tl.jw(color, prec).scale(scale)


def _rainbow_tl(d, width: int, prec: int):
    """Nested cups and caps joining the cables of each plat pair."""
    inv = [0] * d.strands
    for p, t in enumerate(d.permutation()):
        inv[t] = p
    pairing = [0] * (2 * width)
    base = 0
    for pair in range(d.strands // 2):
        w = d.colors[d.component_of(inv[2 * pair])]
        for j in range(w):
            a, b = base + j, base + 2 * w - 1 - j
            pairing[a], pairing[b] = b, a
            pairing[width + a], pairing[width + b] = width + b, width + a
        base += 2 * w
    return tl.TLElement.from_matching(tl.Matching(width, tuple(pairing)), prec)


def tl_colored_invariant(d, prec: int = TL_PRECISION):
    """The colored invariant of the diagram folded in the TL algebra."""
    w = cable(d)
    acc = tl.TLElement.identity(w.total_width, prec)
    for sl in w.slices:
        if sl[0] == "x":
            _, col, eps, par = sl
            piece = _letter(eps, par, prec)
        else:
            _, col, color = sl
            piece = _box(color, d.family_for(color), prec)
        acc = tl.tl_mul(_pad(piece, col, w.total_width, prec), acc)
    if d.closure == "plat":
        acc = tl.tl_mul(_rainbow_tl(d, w.total_width, prec), acc)
    return tl.closure_evaluate(acc)


def check_link(d, groups, exact: bool, z) -> list[str]:
    """chi of the homology = the TL colored invariant; UCT against F_2/F_3."""
    problems = [] if exact else ["bracket is window-truncated (exact=False)"]
    val = tl_colored_invariant(d)
    chi = _chi_by_q(groups)
    if chi and max(chi) > val.precision:
        problems.append(f"TL precision {val.precision} is below q^{max(chi)}")
    if chi != _window(val.items(), val.precision):
        problems.append("chi of the homology differs from the TL colored invariant")
    return problems + check_uct(z, groups)


# -- convolution solver ----------------------------------------------------------------

def d_squared_problems(c) -> list[str]:
    """Entries of d o d that are not zero, composed entry by entry."""
    problems = []
    for h, entries in c.diff.items():
        nxt = c.diff.get(h + 1)
        if not nxt:
            continue
        acc: dict[tuple[int, int], object] = {}
        for (i, j), m in entries.items():
            for (k, i2), m2 in nxt.items():
                if i2 == i:
                    r = cobordism.compose(m2, m)
                    acc[(k, j)] = acc[(k, j)] + r if (k, j) in acc else r
        problems += [f"d^2 != 0 at h={h} {key}" for key, m in sorted(acc.items())
                     if not m.is_zero()]
    return problems


def check_solver(build) -> list[str]:
    """d^2 = 0, and inside the valid window the simplified convolution has
    the graded ranks of the hand-written q3()."""
    problems = d_squared_problems(build.complex)[:4]
    if build.valid_h_min is None:
        return problems + ["build_qn(3) reported no valid window"]
    simp, _ = complexes.simplify(build.complex)
    ranks = {k: v for k, v in simp.graded_ranks().items() if k[0] > build.valid_h_min}
    if ranks != projectors.q3().graded_ranks():
        problems.append(f"graded ranks in the window differ from q3(): {sorted(ranks.items())}")
    return problems
