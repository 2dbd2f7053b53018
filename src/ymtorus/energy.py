"""Discrete Sobolev energies, sector energies and the a-priori-bound monitor.

sobolev_norm returns the squared H^k norm

    sum_{l <= k} sum_sites |D^l xi|^2 sqrt(g) dx^3

with D the covariant stencil of the requested fiber (see lattice.covariant_diff)
and the positive spinor pairing on fermion sectors.  Where the connection
drops out of D (the reference connection, the u(1) adjoint, trivial
representations) the sums are taken in Fourier space, which agrees with the
chain to rounding (lattice.fourier_sobolev_norms).  Sector energies follow
the first-order formulation: temporal derivatives come from the evolution
variables (phidot, psidot) or from an rhs evaluation (E, B), never from
finite-differenced snapshots.

Magnetic-sector norms are computed on Q: the pointwise 2-form norm of
B = *Q equals the 1-form norm of Q, and the covariant stencil commutes with
the constant epsilon contraction, so every H^k norm agrees.
"""

from dataclasses import dataclass

import numpy as np

from .constraints import frame_at, volume_weight
from .errors import InputError
from .geometry import UNIT
from .lattice import (Connection, covariant_diff, covariant_diff_sq_norm, drops_connection,
                      fourier_sobolev_norms, sq_norm)


def sobolev_norms(fld, k, conn, grid, kind="higgs", frame=UNIT, weight=1.0):
    """Squared H^l norms of a field with fiber action `kind` for l = 0..k, in
    the background `frame` (a geometry.Frame) of lattice.covariant_d, on the
    lattice.Connection `conn` (None: the flat reference).

    Where the connection drops out (lattice.drops_connection) they are summed
    in Fourier space; otherwise the covariant-derivative chain is walked once,
    holding only its current level, and the last level is not stored
    (lattice.covariant_diff_sq_norm).  H^l is the running sum of the
    per-level sums up to l, times `weight`, the volume element sqrt(g) dx^3
    per site.
    """
    if k < 0 or k > 4:
        raise InputError("sobolev_norm supports 0 <= k <= 4")
    if drops_connection(conn, kind):
        return fourier_sobolev_norms(fld, k, grid, kind, frame, weight)
    cur, total = fld, sq_norm(fld)
    norms = [float(total * weight)]
    for level in range(1, k + 1):
        if level < k:
            cur = covariant_diff(cur, conn, grid, kind, frame)
            total += sq_norm(cur)
        else:
            total += covariant_diff_sq_norm(cur, conn, grid, kind, frame)
        norms.append(float(total * weight))
    return norms


def sobolev_norm(fld, k, conn, grid, kind="higgs", frame=UNIT, weight=1.0):
    """Squared H^k norm of a field with fiber action `kind` (see sobolev_norms)."""
    return sobolev_norms(fld, k, conn, grid, kind, frame, weight)[k]


# The k-th energy of a sector sums, in this order, the H^(k + shift) norms of
# these fields of the state ("u") or of its rhs evaluation ("rhs"), all of the
# sector's fiber kind; terms with k + shift < 0 are left out.
SECTOR_TERMS = {
    "yangmills": (("rhs", "E", -1), ("u", "E", 0), ("rhs", "Q", -1), ("u", "Q", 0)),
    "higgs": (("u", "phidot", -1), ("u", "phi", 0)),
    "dirac": (("u", "psidot", -1), ("u", "psi", 0)),
}
SECTOR_KIND = {"yangmills": "adjoint", "higgs": "higgs", "dirac": "spinor"}


class Norms:
    """Sector energies of one state from the H^l norms (l <= max(2, k)) of its fields.

    An entry, keyed (connection acts, source, field), holds [H^0, H^1, ...]
    of one field; where a connection acts by zero it is the reference entry.
    blocks() lists the missing entries that the energies on some connections
    read, for the caller's parallel.balance; energy() fills a missing entry
    lazily.  Both read one lattice.Connection `conn` of u.eta (built if None).
    `table` is the dict the entries go into (a new one if None); it may
    already hold entries of this state at this top.
    """

    def __init__(self, u, rhs_state, bg, k, table=None, conn=None):
        self.u, self.rhs_state, self.k, self.top = u, rhs_state, k, max(2, k)
        self.frame, self.w = frame_at(u, bg), volume_weight(u, bg)
        self.conn = conn or Connection(u.eta, u.model)
        self.table = {} if table is None else table  # key -> [H^0, H^1, ...]

    def _terms(self, sector, connection):
        """(key, kind, shift) of each term of the sector's energies, in summation order."""
        kind = SECTOR_KIND[sector]
        acts = connection == "omega" and self.u.model.acts[kind]
        return [((acts, source, name), kind, shift) for source, name, shift in SECTOR_TERMS[sector]]

    def _norms(self, key, kind, shift):
        acts, source, name = key
        if source == "rhs" and self.rhs_state is None:
            raise InputError("yangmills energy with k >= 1 needs an rhs evaluation")
        u = self.u
        return sobolev_norms(getattr(u if source == "u" else self.rhs_state, name),
                             self.top + shift, self.conn if acts else None, u.grid, kind,
                             self.frame, self.w)

    def blocks(self, connections):
        """A (cost, fill) pair of parallel.balance for each missing entry that
        the energies on `connections` read; fill() puts the entry in the table.

        The estimated cost is the field's real multiplications per product
        (four per complex element, one per real element) times
        sum_{l <= levels} 3^l, the sizes of the chain's levels; a Fourier sum
        counts one field.  Each fill is the same sobolev_norms call as
        energy()'s, so no bit changes.
        """
        todo = {key: (kind, shift) for connection in connections for sector in SECTOR_TERMS
                for key, kind, shift in self._terms(sector, connection)
                if key not in self.table and self.top + shift >= 0}

        def entry(key):  # an rhs field has the shape and dtype of the state's
            fld, levels = getattr(self.u, key[2]), self.top + todo[key][1]

            def fill():
                self.table[key] = self._norms(key, *todo[key])

            return (fld.size * (4 if np.iscomplexobj(fld) else 1)
                    * ((3 ** (levels + 1) - 1) // 2 if key[0] else 1), fill)

        return [entry(key) for key in todo]

    def energy(self, sector, k, connection="omega"):
        """k-th energy (0 <= k <= max(2, self.k)) of one sector of "yangmills",
        "higgs" and "dirac"; connection="reference" drops the eta terms from
        the covariant stencil.  The Yang-Mills energy at k >= 1 reads the rhs
        evaluation's E and Q."""
        if sector not in SECTOR_TERMS:
            raise InputError("unknown sector %r" % sector)
        if not 0 <= k <= self.top:
            raise InputError("energy k = %d outside 0..%d" % (k, self.top))
        total = 0.0
        for key, kind, shift in self._terms(sector, connection):
            if k + shift >= 0:
                if key not in self.table:
                    self.table[key] = self._norms(key, kind, shift)
                total += self.table[key][k + shift]
        return total

    def total(self):
        """The headline total: the three sector energies at k."""
        return sum(self.energy(sector, self.k) for sector in SECTOR_TERMS)


def sup_norms(u):
    """Pointwise fiber norms, maximized over the grid, per physical sector."""
    def mx(x, axes):
        return float(np.sqrt(np.sum(np.abs(x) ** 2, axis=axes).max()))

    return {
        "eta": mx(u.eta, (0, 1)),
        "E": mx(u.E, (0, 1)),
        "B": mx(u.Q, (0, 1)),  # |B| = |*Q| = |Q| pointwise
        "phi": mx(u.phi, (0,)),
        "psi": mx(u.psi, (0, 1)),
    }


@dataclass
class EnergyReport:
    tau: float
    k: int
    yangmills: dict
    higgs: dict
    dirac: dict
    total: float
    reference_total: float
    sup: dict

    def as_row(self):
        row = {"tau": self.tau}
        for kk in sorted(self.yangmills):
            row["E_ym_k%d" % kk] = self.yangmills[kk]
            row["E_higgs_k%d" % kk] = self.higgs[kk]
            row["E_dirac_k%d" % kk] = self.dirac[kk]
        row["E_total"] = self.total
        row["E_reference"] = self.reference_total
        for name, val in self.sup.items():
            row["sup_%s" % name] = val
        return row


def energy_report(norms):
    """Sector energies for k = 0, 1, 2 and k (norms.k), the headline total at
    k (Norms.total) and the reference-connection variant (adds
    ||eta||^2_{H^k}), summed from the per-level sums of the Norms' entries;
    the missing ones are filled lazily (a caller that runs
    norms.blocks(("omega", "reference")) first finds them all)."""
    u, k = norms.u, norms.k
    k_list = sorted({0, 1, 2, k})
    ym, hg, dr = ({kk: norms.energy(sector, kk) for kk in k_list} for sector in SECTOR_TERMS)
    ref = (sum(norms.energy(sector, k, "reference") for sector in SECTOR_TERMS)
           + sobolev_norm(u.eta, k, None, u.grid, "adjoint", norms.frame, norms.w))
    return EnergyReport(tau=u.tau, k=k, yangmills=ym, higgs=hg, dirac=dr,
                        total=norms.total(), reference_total=ref, sup=sup_norms(u))


# ---------------------------------------------------------------------------
# Monitors
# ---------------------------------------------------------------------------

@dataclass
class EstimateVerdict:
    bounded: bool
    fitted_C: float
    max_energy: float
    exceeded_unity: bool
    initial: float


def estimate_monitor(taus, totals):
    """Fit the smallest C with E(tau) <= E(0) exp(C tau) and flag excursions
    of the total energy above 1 (outside the smallness regime)."""
    taus = np.asarray(taus, dtype=float)
    totals = np.asarray(totals, dtype=float)
    e0 = totals[0]
    if e0 <= 0:
        return EstimateVerdict(True, 0.0, float(totals.max(initial=0.0)),
                               bool((totals > 1).any()), 0.0)
    with np.errstate(divide="ignore"):
        rates = np.log(totals[1:] / e0) / taus[1:]
    C = float(max(0.0, np.max(rates))) if rates.size else 0.0
    return EstimateVerdict(
        bounded=bool(np.all(totals <= e0 * np.exp(C * taus) * (1 + 1e-12))),
        fitted_C=C,
        max_energy=float(totals.max()),
        exceeded_unity=bool((totals > 1.0).any()),
        initial=float(e0),
    )


def norm_evolution_ratio(taus, norms, rate_norms, ii_sup):
    """Discrete shadow of the H^k evolution bound: the ratio

        |d/dtau ||xi||^2| / ((||dxi/dtau|| + ||II||_Ck ||xi||) ||xi||)

    evaluated with centered differences; the max over the series is the
    fitted constant.  norms and rate_norms are time series of ||xi||_{H^k}
    and ||dxi/dtau||_{H^k}.
    """
    taus = np.asarray(taus, dtype=float)
    nrm = np.asarray(norms, dtype=float)
    rate = np.asarray(rate_norms, dtype=float)
    if len(taus) < 3:
        raise InputError("need at least 3 samples")
    dsq = (nrm[2:] ** 2 - nrm[:-2] ** 2) / (taus[2:] - taus[:-2])
    mid_n = nrm[1:-1]
    mid_r = rate[1:-1]
    denom = (mid_r + ii_sup * mid_n) * mid_n
    mask = denom > 1e-300
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(dsq[mask]) / denom[mask]))
