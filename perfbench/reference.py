"""Independent reference answers and measured input properties.

Everything here is computed from the generated integer columns with
`scipy.sparse` products or plain numpy, never through mmjoin, and always
outside the timed window. The expected outputs are rendered in the CLI's
exact text format (sorted lines, one trailing newline), so verification is
a string comparison and a single dropped row or miscounted witness fails it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from gen import Pairs


def incidence(p: Pairs) -> sp.csr_matrix:
    """0/1 matrix with a row per left name and a column per right name."""
    data = np.ones(p.n, dtype=np.int64)
    m = sp.csr_matrix((data, (p.left, p.right)),
                      shape=(len(p.left_names), len(p.right_names)))
    m.sum_duplicates()
    m.data[:] = 1
    return m


def _text(lines: list) -> str:
    lines.sort()
    return "\n".join(lines) + "\n"


def _first_seen_rank(p: Pairs) -> np.ndarray:
    """The program numbers left values in order of first appearance."""
    uniq, first = np.unique(p.left, return_index=True)
    rank = np.full(len(p.left_names), -1, dtype=np.int64)
    rank[uniq[np.argsort(first)]] = np.arange(len(uniq))
    return rank


def twopath_text(r: Pairs, s: Pairs) -> str:
    """pi_{x,z} R(x,y) join S(z,y), as `mmjoin twopath` prints it."""
    prod = (incidence(r) @ incidence(s).T).tocoo()
    ln, rn = r.left_names, s.left_names
    return _text([f"{ln[x]} {rn[z]}"
                  for x, z in zip(prod.row.tolist(), prod.col.tolist())])


def star_text(p: Pairs, k: int) -> str:
    """pi_{x1..xk} of `p` joined k times with itself on the right column,
    by enumerating every witness's k-fold cross product and deduplicating."""
    cols = incidence(p).tocsc()
    dom = len(p.left_names)
    blocks = [np.empty(0, dtype=np.int64)]
    for y in range(cols.shape[1]):
        xs = cols.indices[cols.indptr[y]:cols.indptr[y + 1]].astype(np.int64)
        codes = xs
        for _ in range(k - 1):
            codes = (codes[:, None] * dom + xs[None, :]).ravel()
        blocks.append(codes)
    codes = np.unique(np.concatenate(blocks))
    digits = []
    for _ in range(k):
        codes, d = np.divmod(codes, dom)
        digits.append(d.tolist())
    names = p.left_names
    return _text([" ".join(names[v] for v in tup)
                  for tup in zip(*reversed(digits))])


def ssj_text(p: Pairs, c: int) -> str:
    """Unordered pairs with overlap >= c and the exact overlap, as
    `mmjoin ssj --method mmjoin` prints them (a before b in file order)."""
    prod = (incidence(p) @ incidence(p).T).tocoo()
    rank = _first_seen_rank(p)
    keep = (rank[prod.row] < rank[prod.col]) & (prod.data >= c)
    names = p.left_names
    return _text([f"{names[a]} {names[b]} {n}" for a, b, n in
                  zip(prod.row[keep].tolist(), prod.col[keep].tolist(),
                      prod.data[keep].tolist())])


def scj_text(p: Pairs) -> str:
    """Ordered pairs a != b whose overlap equals |a|, i.e. a is contained in b."""
    inc = incidence(p)
    prod = (inc @ inc.T).tocoo()
    size = np.asarray(inc.sum(axis=1)).ravel()
    keep = (prod.row != prod.col) & (prod.data == size[prod.row])
    names = p.left_names
    return _text([f"{names[a]} {names[b]}" for a, b in
                  zip(prod.row[keep].tolist(), prod.col[keep].tolist())])


def bsi_answers(inc: sp.csr_matrix, qa: np.ndarray, qb: np.ndarray) -> list:
    """answer[i] is True iff rows qa[i] and qb[i] share a column."""
    hits = np.asarray(inc[qa].multiply(inc[qb]).sum(axis=1)).ravel()
    return (hits > 0).tolist()


def diagnose(got: str, expected: str) -> str:
    """One line saying how a CLI output differs from the reference."""
    g, e = got.splitlines(), expected.splitlines()
    for i, (a, b) in enumerate(zip(g, e)):
        if a != b:
            return (f"{len(g)} lines vs {len(e)} expected; first difference "
                    f"at line {i + 1}: {a!r} vs {b!r}")
    return f"{len(g)} lines vs {len(e)} expected"


def twopath_properties(r: Pairs, s: Pairs, plan=None) -> dict:
    """Tuples, |OUT_join|, |OUT|, sharing = |OUT_join| / |OUT|, and, given the
    (strategy, delta1, delta2) the program chose, the share of the output the
    heavy matrix product produces under that split."""
    rm, sm = incidence(r), incidence(s)
    shared = (np.asarray(rm.sum(axis=0)).ravel() > 0) & \
             (np.asarray(sm.sum(axis=0)).ravel() > 0)
    rm, sm = rm[:, shared], sm[:, shared]
    deg_ry = np.asarray(rm.sum(axis=0)).ravel()
    deg_sy = np.asarray(sm.sum(axis=0)).ravel()
    out_join = int(deg_ry @ deg_sy)
    output = (rm @ sm.T).nnz
    props = {"tuples": int(max(rm.nnz, sm.nnz)), "out_join": out_join,
             "output_rows": int(output),
             "sharing": out_join / output if output else 0.0,
             "heavy_share": None}
    if plan is not None and output:
        strategy, d1, d2 = plan
        heavy = 0
        if strategy != "fulljoin":
            heavy_y = ~((deg_ry <= d1) & (deg_sy <= d1))
            hx = np.asarray(rm.sum(axis=1)).ravel() > d2
            hz = np.asarray(sm.sum(axis=1)).ravel() > d2
            prod = rm[hx][:, heavy_y] @ sm[hz][:, heavy_y].T
            prod.eliminate_zeros()
            heavy = prod.nnz
        props["heavy_share"] = heavy / output
    return props


def star_properties(p: Pairs, k: int, expected_rows: int) -> dict:
    inc = incidence(p)
    out_join = int((np.asarray(inc.sum(axis=0)).ravel() ** k).sum())
    return {"tuples": int(inc.nnz), "out_join": out_join,
            "output_rows": expected_rows,
            "sharing": out_join / expected_rows if expected_rows else 0.0}
