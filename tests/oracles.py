"""Independent reference computations used to freeze expected test values.

Arithmetic here runs on flat {(qexp, zexp): Fraction} dicts with explicit
loops. Nothing but the term-bound reference at the end imports the package,
and that imports only the parser's node classes to read syntax trees, so
these results are an independent check on it, not a restatement of it.
"""

from fractions import Fraction

from baileyforge.dsl import nodes as N

# Term-list arithmetic. Keys are (qexp, zexp) with qexp in scaled units.


def tl_zero():
    return {}


def tl_one():
    return {(0, 0): Fraction(1)}


def tl_mono(c, zexp=0, qexp=0):
    c = Fraction(c)
    return {(qexp, zexp): c} if c else {}


def tl_add(a, b):
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, Fraction(0)) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def tl_scale(a, c):
    c = Fraction(c)
    return {k: v * c for k, v in a.items()} if c else {}


def tl_mul(a, b, order):
    out = {}
    for (qa, za), ca in a.items():
        for (qb, zb), cb in b.items():
            qe = qa + qb
            if qe > order:
                continue
            k = (qe, za + zb)
            s = out.get(k, Fraction(0)) + ca * cb
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def tl_poch(base, step, length, order):
    """Finite product prod_{t<length} (1 - base * q^(t*step))."""
    c, ze, qe = base
    out = tl_one()
    for t in range(length):
        f = tl_add(tl_one(), tl_mono(-Fraction(c), ze, qe + t * step))
        out = tl_mul(out, f, order)
    return out


def tl_poch_inf(base, step, order):
    """Infinite product, factors kept while their q-exponent stays <= order."""
    c, ze, qe = base
    out = tl_one()
    t = 0
    while qe + t * step <= order:
        f = tl_add(tl_one(), tl_mono(-Fraction(c), ze, qe + t * step))
        out = tl_mul(out, f, order)
        t += 1
    return out


def tl_inv(a, order):
    """Invert a series whose lowest q-slice is a single monomial."""
    m = min(qe for qe, _ in a)
    lead = [(k, c) for k, c in a.items() if k[0] == m]
    assert len(lead) == 1, "leading slice must be a monomial"
    (mq, mz), mc = lead[0]
    lead_inv = tl_mono(1 / mc, -mz, -mq)
    u = tl_add(tl_mul(lead_inv, a, order + abs(mq) + 1), tl_scale(tl_one(), -1))
    u = {k: c for k, c in u.items() if k[0] <= order}
    out = tl_one()
    term = tl_one()
    for _ in range(order + 1):
        term = tl_scale(tl_mul(term, u, order), -1)
        if not term:
            break
        out = tl_add(out, term)
    return tl_mul(out, lead_inv, order + abs(mq))


def tl_cmp_upto(a, b, order):
    keys = {k for k in a if k[0] <= order} | {k for k in b if k[0] <= order}
    bad = []
    for k in sorted(keys):
        ca = a.get(k, Fraction(0))
        cb = b.get(k, Fraction(0))
        if ca != cb:
            bad.append((k, ca, cb))
    return bad


def partition_counts(nmax):
    """p(0..nmax) by Euler's pentagonal recurrence."""
    p = [1] + [0] * nmax
    for n in range(1, nmax + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def euler_product_coeffs(nmax):
    """Coefficients of prod (1-q^n) by the pentagonal number theorem."""
    out = [0] * (nmax + 1)
    out[0] = 1
    k = 1
    while k * (3 * k - 1) // 2 <= nmax:
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g <= nmax:
                out[g] += -1 if k % 2 else 1
        k += 1
    return out


def gaussian_binom_poly(n, k):
    """Gaussian binomial as a dense integer coefficient list."""
    if k < 0 or k > n:
        return [0]
    table = {(0, 0): [1]}
    for nn in range(1, n + 1):
        for kk in range(0, min(k, nn) + 1):
            if kk == 0 or kk == nn:
                table[(nn, kk)] = [1]
                continue
            a = table[(nn - 1, kk - 1)]
            b = table[(nn - 1, kk)]
            size = max(len(a), len(b) + kk)
            out = [0] * size
            for i, c in enumerate(a):
                out[i] += c
            for i, c in enumerate(b):
                out[i + kk] += c
            table[(nn, kk)] = out
    return table[(n, k)]


def key_alpha(n):
    """Main bilateral pair alpha: (-1)^n z^n q^(n(n-1)/2) as a term dict."""
    return tl_mono((-1) ** (n % 2), n, n * (n - 1) // 2)


def key_beta(n, order, r=1):
    """Main bilateral pair beta at dilation r: (z, Q/z; Q)_n / (Q; Q)_2n, Q = q^r."""
    if n < 0:
        return {}
    num = tl_mul(
        tl_poch((1, 1, 0), r, n, order),
        tl_poch((1, -1, r), r, n, order),
        order,
    )
    return tl_mul(num, tl_inv(tl_poch((1, 0, r), r, 2 * n, order), order), order)


def two_limit_weight(x, y, r, n, order):
    """(x, y; Q)_n (Q/xy)^n with Q = q^r, for n >= 0.

    A limit is None (infinite) or (sign, a) for sign * q^a. An infinite
    limit enters as lim (x; Q)_n x^-n = (-1)^n Q^binom(n, 2).
    """
    qexp, sign, out = r * n, 1, tl_one()
    for p in (x, y):
        if p is None:
            qexp += r * n * (n - 1) // 2
            sign *= (-1) ** n
        else:
            c, a = p
            out = tl_mul(out, tl_poch((c, 0, a), r, n, order), order)
            qexp -= a * n
            sign *= c ** n
    assert qexp >= 0, "weights falling with n are out of scope"
    return tl_mul(tl_mono(sign, 0, qexp), out, order)


def _chains(top, k):
    """Every n_1 >= ... >= n_k >= 0 with n_1 <= top."""
    if k == 0:
        yield ()
        return
    for n in range(top + 1):
        for rest in _chains(n, k - 1):
            yield (n,) + rest


def literal_multisum(kind, k, order, x=None, y=None):
    """The k-fold chain multisum at scale 1 and formal z, term by term.

    It is the sum over n_1 >= ... >= n_k >= 0 of
        W_1(n_1) ... W_k(n_k) K_1(n_1 - n_2) ... K_(k-1)(n_(k-1) - n_k) beta_(n_k),
    with beta the main pair's at dilation R:
      AG1:  W_i(n) = q^(n^2), K_i(m) = 1 / (q; q)_m, R = 1.
      AG2:  W_i(n) = q^(n^2) times (-q; q^2)_n on the inner index,
            K_i(m) = 1 / (q^2; q^2)_m, R = 2.
      LAT1: W_1 = two_limit_weight(x, y) at Q = q; with s = 2^(i-1),
            W_(i+1)(n) = (-1; q^s)_2n q^(sn), K_i(m) = 1 / (q^2s; q^2s)_m;
            R = 2^(k-1).
      LAT2: as LAT1 with W_(i+1)(n) = (-q^s; q^s)_2n and
            K_i(m) = q^(sm) / (q^2s; q^2s)_m.
    Every factor has lowest exponent >= 0, and W_1's lowest exponent grows
    with n_1 in every setting used here, so n_1 runs until W_1 leaves the
    order.
    """
    memo = {}

    def cached(key, make):
        if key not in memo:
            memo[key] = make()
        return memo[key]

    def weight(i, n):
        if kind in ("AG1", "AG2"):
            odd = tl_poch((-1, 0, 1), 2, n if kind == "AG2" and i == k else 0, order)
            return tl_mul(tl_mono(1, 0, n * n), odd, order)
        if i == 1:
            return two_limit_weight(x, y, 1, n, order)
        s = 2 ** (i - 2)
        if kind == "LAT1":
            return tl_mul(tl_poch((-1, 0, 0), s, 2 * n, order), tl_mono(1, 0, s * n), order)
        return tl_poch((-1, 0, s), s, 2 * n, order)

    def kernel(i, m):
        if kind in ("AG1", "AG2"):
            step, shift = (1 if kind == "AG1" else 2), 0
        else:
            s = 2 ** (i - 1)
            step, shift = 2 * s, (s if kind == "LAT2" else 0)
        den = tl_inv(tl_poch((1, 0, step), step, m, order), order)
        return tl_mul(den, tl_mono(1, 0, shift * m), order)

    dilation = {"AG1": 1, "AG2": 2}.get(kind, 2 ** (k - 1))
    total = {}
    n1 = 0
    while True:
        outer = cached(("w", 1, n1), lambda: weight(1, n1))
        if not outer:
            break
        for rest in _chains(n1, k - 1):
            ns = (n1,) + rest
            t = outer
            for i in range(1, k):
                m, n = ns[i - 1] - ns[i], ns[i]
                t = tl_mul(t, cached(("k", i, m), lambda: kernel(i, m)), order)
                t = tl_mul(t, cached(("w", i + 1, n), lambda: weight(i + 1, n)), order)
            if t:
                beta = cached(("b", ns[-1]), lambda: key_beta(ns[-1], order, dilation))
                total = tl_add(total, tl_mul(t, beta, order))
        n1 += 1
    return total


def weak_v1_sides(order):
    """Square-weight single-sum identity, both sides by direct summation."""
    lhs = {}
    n = 0
    while n * n <= order:
        lhs = tl_add(lhs, tl_mul(tl_mono(1, 0, n * n), key_beta(n, order), order))
        n += 1
    asum = {}
    n = 0
    while n * n + n * (n - 1) // 2 <= order or n <= 1:
        for m in ([n] if n == 0 else [n, -n]):
            t = tl_mul(tl_mono(1, 0, m * m), key_alpha(m), order)
            if all(qe > order for qe, _ in t) and t:
                continue
            asum = tl_add(asum, t)
        n += 1
    rhs = tl_mul(tl_inv(tl_poch_inf((1, 0, 1), 1, order), order), asum, order)
    return lhs, rhs


def hecke_full_rhs(order):
    """Double sum q^(n(n+1)) * sum_{|j|<=n} (-1)^j z^j q^(-j)."""
    out = {}
    n = 0
    while n * (n + 1) - n <= order:
        for j in range(-n, n + 1):
            qe = n * (n + 1) - j
            if qe <= order:
                out = tl_add(out, tl_mono((-1) ** (j % 2), j, qe))
        n += 1
    return out


def fmt(tl):
    """Render a term dict as sorted python-literal text for freezing."""
    items = sorted(tl.items())
    return "{" + ", ".join(f"({q}, {z}): F({c})" for (q, z), c in items) + "}"


# -- term-bound reference ------------------------------------------------------
#
# A port of the package's lowest-exponent bounds as they stood before they
# were lowered once per plan: every call walks the syntax tree against the
# bindings, with polynomials as {monomial: Fraction} dicts whose monomials are
# sorted ((name, power), ...) tuples. The one change from that code is the
# range sum with a negative lower end, split at 0 with j = -j' mirrored over
# [1, -lo]. Tests compare the lowered bounds against it.

REF_RAY = "@t"


def ref_const(v):
    v = Fraction(v)
    return {(): v} if v else {}


def ref_var(name):
    return {((name, 1),): Fraction(1)}


def _ref_put(out, m, c):
    s = out.get(m, 0) + c
    if s:
        out[m] = s
    else:
        out.pop(m, None)


def ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        _ref_put(out, m, c)
    return out


def ref_neg(a):
    return {m: -c for m, c in a.items()}


def ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            powers = dict(m1)
            for v, k in m2:
                powers[v] = powers.get(v, 0) + k
            _ref_put(out, tuple(sorted(powers.items())), c1 * c2)
    return out


def _ref_pow(a, k):
    out = ref_const(1)
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def _ref_min(a, b):
    out = {}
    for m in a.keys() | b.keys():
        _ref_put(out, m, min(a.get(m, 0), b.get(m, 0)))
    return out


def _ref_relax(p, name, bound):
    out = {}
    for m, c in p.items():
        k = dict(m).get(name, 0)
        if not k:
            _ref_put(out, m, c)
        elif c < 0:
            rest = {tuple(x for x in m if x[0] != name): c}
            for mm, cc in ref_mul(rest, _ref_pow(bound, k)).items():
                _ref_put(out, mm, cc)
    return out


def _ref_mpoly(e, sub, env):
    if isinstance(e, N.IntLit):
        return ref_const(e.value)
    if isinstance(e, N.IVar):
        if e.name in sub:
            return sub[e.name]
        if e.name in env:
            return ref_const(env[e.name])
        return None
    if isinstance(e, (N.IAdd, N.ISub, N.IMul)):
        a, b = _ref_mpoly(e.left, sub, env), _ref_mpoly(e.right, sub, env)
        if a is None or b is None:
            return None
        if isinstance(e, N.IAdd):
            return ref_add(a, b)
        if isinstance(e, N.ISub):
            return ref_add(a, ref_neg(b))
        return ref_mul(a, b)
    a = _ref_mpoly(e.base if isinstance(e, N.IPow) else e.arg, sub, env)
    if a is None:
        return None
    if isinstance(e, N.INeg):
        return ref_neg(a)
    if isinstance(e, N.IPow):
        return _ref_pow(a, e.power)
    return ref_mul(ref_mul(a, ref_add(a, ref_const(-1))), ref_const(Fraction(1, 2)))


def _ref_int(e, env):
    """int_eval: KeyError for an unbound name."""
    if isinstance(e, N.IntLit):
        return e.value
    if isinstance(e, N.IVar):
        return env[e.name]
    if isinstance(e, N.IAdd):
        return _ref_int(e.left, env) + _ref_int(e.right, env)
    if isinstance(e, N.ISub):
        return _ref_int(e.left, env) - _ref_int(e.right, env)
    if isinstance(e, N.IMul):
        return _ref_int(e.left, env) * _ref_int(e.right, env)
    if isinstance(e, N.INeg):
        return -_ref_int(e.arg, env)
    if isinstance(e, N.IPow):
        return _ref_int(e.base, env) ** e.power
    v = _ref_int(e.arg, env)
    return v * (v - 1) // 2


class _RefUnknown(Exception):
    """A product base that is no single monomial, or a zero divisor in one."""


def _ref_base(b, scale, env):
    """(coeff, zexp, qexp) of a product base read structurally; KeyError for an unbound name."""
    if isinstance(b, N.Rational):
        return Fraction(b.value), 0, 0
    if isinstance(b, N.NumPoly):
        return Fraction(_ref_int(b.poly, env)), 0, 0
    if isinstance(b, N.QPow):
        return Fraction(1), 0, scale if b.exp is None else _ref_int(b.exp, env)
    if isinstance(b, N.ZPow):
        return Fraction(1), 1 if b.exp is None else _ref_int(b.exp, env), 0
    if isinstance(b, N.Neg):
        c, ze, qe = _ref_base(b.arg, scale, env)
        return -c, ze, qe
    if isinstance(b, (N.Mul, N.Div)):
        (c1, z1, q1), (c2, z2, q2) = _ref_base(b.left, scale, env), _ref_base(b.right, scale, env)
        if isinstance(b, N.Mul):
            return c1 * c2, z1 + z2, q1 + q2
        if not c2:
            raise _RefUnknown
        return c1 / c2, z1 - z2, q1 - q2
    if isinstance(b, N.Pow):
        p = _ref_int(b.exp, env)
        c, ze, qe = _ref_base(b.base, scale, env)
        if not c:
            if p < 0:
                raise _RefUnknown
            return (Fraction(1), 0, 0) if p == 0 else (Fraction(0), 0, 0)
        return c ** p, ze * p, qe * p
    raise _RefUnknown


_REF_UNKNOWN = (None, None)


def _ref_plus(a, b):
    return None if a is None or b is None else ref_add(a, b)


def _ref_minus(a, b):
    return None if a is None or b is None else ref_add(a, ref_neg(b))


def _ref_times(a, k):
    return None if a is None else ref_mul(a, ref_const(k))


def _ref_product(expr, sub, env, scale, zfold):
    fixed = {k: v for k, v in env.items() if k not in sub}
    try:
        step = _ref_int(expr.step, fixed)
        triples = [_ref_base(b, scale, fixed) for b in expr.bases]
    except KeyError:
        return _ref_moving(expr, sub, env, scale, zfold)
    except _RefUnknown:
        return _REF_UNKNOWN
    if step < 1:
        return _REF_UNKNOWN
    length = None
    constant = True
    if isinstance(expr, N.Poch) and expr.length is not None:
        lp = _ref_mpoly(expr.length, sub, env)
        constant = lp is not None and lp.keys() <= {()}
        if constant:
            length = int(lp.get((), 0))
    lift = 0
    vanishes = False
    for c, ze, qe in triples:
        if not c:
            continue
        if ze and zfold is None:
            eff, folded = qe, None
        elif ze:
            eff = qe + ze * zfold[1]
            folded = -c if zfold[0] == -1 and ze % 2 else c
        else:
            eff, folded = qe, c
        k = 0
        while eff + k * step < 0 and (length is None or k < length):
            lift -= eff + k * step
            k += 1
        if (folded == 1 and eff <= 0 and eff % step == 0
                and (length is None or -eff // step < length)):
            vanishes = True
    if vanishes:
        return ref_const(-lift), None
    return ref_const(-lift), (ref_const(-lift) if constant else {})


def _ref_moving(expr, sub, env, scale, zfold):
    if not isinstance(expr, N.Poch) or len(expr.bases) != 1 or expr.length is None:
        return _REF_UNKNOWN
    b = expr.bases[0]
    lo, up = ref_term_bounds(b, sub, env, scale, zfold)
    if lo is None or _ref_mpoly(expr.length, sub, env) != ref_const(1):
        return _REF_UNKNOWN
    rises, falls = (all(sign * c >= 0 for c in lo.values()) for sign in (1, -1))
    nonzero = (rises or falls) and lo.get((), 0) != 0
    if lo != up or not (nonzero or _ref_coeff(b) not in (None, 1)):
        return _ref_min({}, lo), None
    return _ref_min({}, lo), (lo if falls else {})


def _ref_coeff(e):
    if isinstance(e, N.Rational):
        return e.value or None
    if isinstance(e, N.QPow):
        return Fraction(1)
    if isinstance(e, N.Neg):
        c = _ref_coeff(e.arg)
        return None if c is None else -c
    if isinstance(e, (N.Mul, N.Div)):
        c1, c2 = _ref_coeff(e.left), _ref_coeff(e.right)
        if c1 is None or c2 is None:
            return None
        return c1 * c2 if isinstance(e, N.Mul) else c1 / c2
    return None


def ref_term_bounds(expr, sub, env, scale, zfold):
    """(lower, upper) bounds on the lowest q-exponent of expr, walked afresh on every call."""
    if isinstance(expr, N.Rational):
        return {}, ({} if expr.value else None)
    if isinstance(expr, (N.NumPoly, N.QBinom)):
        return {}, None
    if isinstance(expr, N.QPow):
        e = ref_const(scale) if expr.exp is None else _ref_mpoly(expr.exp, sub, env)
        return e, e
    if isinstance(expr, N.ZPow):
        if zfold is None:
            return {}, {}
        e = ref_const(1) if expr.exp is None else _ref_mpoly(expr.exp, sub, env)
        e = _ref_times(e, zfold[1])
        return e, e
    if isinstance(expr, N.Neg):
        return ref_term_bounds(expr.arg, sub, env, scale, zfold)
    if isinstance(expr, (N.Mul, N.Div)):
        alo, aup = ref_term_bounds(expr.left, sub, env, scale, zfold)
        blo, bup = ref_term_bounds(expr.right, sub, env, scale, zfold)
        if isinstance(expr, N.Mul):
            return _ref_plus(alo, blo), _ref_plus(aup, bup)
        return _ref_minus(alo, bup), _ref_minus(aup, blo)
    if isinstance(expr, (N.Add, N.Sub)):
        if None not in (_ref_coeff(expr.left), _ref_coeff(expr.right)):
            # m1 +- m2 is m1 * (-+m2/m1; q)_1.
            base = N.Div(left=expr.right, right=expr.left)
            one = N.IntLit(value=1)
            poch = N.Poch(bases=(N.Neg(arg=base) if isinstance(expr, N.Add) else base,),
                          step=one, length=one)
            return ref_term_bounds(N.Mul(left=expr.left, right=poch), sub, env, scale, zfold)
        alo, _ = ref_term_bounds(expr.left, sub, env, scale, zfold)
        blo, _ = ref_term_bounds(expr.right, sub, env, scale, zfold)
        return (None if alo is None or blo is None else _ref_min(alo, blo)), None
    if isinstance(expr, N.Pow):
        e = _ref_mpoly(expr.exp, sub, env)
        if e is None:
            return _REF_UNKNOWN
        if e.keys() <= {()}:
            k = int(e.get((), 0))
            if k == 0:
                return {}, {}
            lo, up = ref_term_bounds(expr.base, sub, env, scale, zfold)
            if k > 0:
                return _ref_times(lo, k), _ref_times(up, k)
            return _ref_times(up, k), _ref_times(lo, k)
        lo, up = ref_term_bounds(expr.base, sub, env, scale, zfold)
        if lo is None or lo != up:
            return _REF_UNKNOWN
        x = ref_mul(e, lo)
        return x, x
    if isinstance(expr, (N.Poch, N.Theta)):
        return _ref_product(expr, sub, env, scale, zfold)
    if isinstance(expr, N.RangeSum):
        lo_p = _ref_mpoly(expr.lo, sub, env)
        hi_p = _ref_mpoly(expr.hi, sub, env)
        if lo_p is None or hi_p is None or any(c < 0 for c in hi_p.values()):
            return _REF_UNKNOWN
        j = ref_var(expr.index)
        parts = [(j, hi_p)]
        if not (lo_p.keys() <= {()} and lo_p.get((), 0) >= 0):
            if any(c > 0 for c in lo_p.values()):
                return _REF_UNKNOWN
            parts.append((ref_neg(j), ref_neg(lo_p)))
        out = None
        for value, width in parts:
            inner = dict(sub)
            inner[expr.index] = value
            lo, _ = ref_term_bounds(expr.body, inner, env, scale, zfold)
            if lo is None:
                return _REF_UNKNOWN
            lo = _ref_relax(lo, expr.index, width)
            out = lo if out is None else _ref_min(out, lo)
        return out, None
    return _REF_UNKNOWN


def ref_ray_coeffs(p):
    if p is None:
        return None
    out = [Fraction(0)]
    for m, c in p.items():
        if len(m) > 1 or (m and m[0][0] != REF_RAY):
            return None
        k = m[0][1] if m else 0
        out.extend([Fraction(0)] * (k + 1 - len(out)))
        out[k] = c
    return out


def ref_ray_floor(body, subs, env, scale, zfold, inner=(), bound=None):
    """Minimum over subs of the body's lower bound, inner names relaxed over [0, bound]."""
    floor = None
    for sub in subs:
        lo, _ = ref_term_bounds(body, sub, env, scale, zfold)
        if lo is None:
            return None
        floor = lo if floor is None else _ref_min(floor, lo)
    for name in inner:
        floor = _ref_relax(floor, name, bound)
    return ref_ray_coeffs(floor)
