"""Cocycle formulas, loop evaluation and the rotation identity.

A degree-3 arrow germ formula is a rational combination of allowed
arrow 3-germs and monotonic partial arrow germs.  Its value on a loop
in knot space is the sum, over the moves of the loop, of the germ
pairing with the move's germ oriented by the traversal.  An R1 or R2
germ pairs only with terms of its own kind: the formulas of the
degree-3 system have none, but a coboundary does.  Trivial cocycles
(coboundaries of arrow diagram combinations) vanish on every closed
loop, so loop values are class invariants.

A loop is a closed chain of germs, like a meridian.  The rotation loop
takes its germs from ``morse.rot_moves``; only a move list read from
outside the package is replayed, through the checked ``make_germ``.

The distinguished formula alpha31 spans, modulo trivial cocycles, the
one-dimensional solution space of the degree-3 system, normalised so
that its value on the rotation loop of a long knot K is -v2(K).
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .diagrams import ArrowDiagram, FormalSum, GaussDiagram, pair
from .germs import (_MEETS, Germ, OpenLoopError, check_closed, enumerate_arrow_diagrams,
                    make_germ, pair_germ, reversed_chain)
from .coboundary import coboundary, death_germ, deaths
from .moves import Move, move_between
from . import fixtures_io as fio
from .morse import FIXTURE_MORSE, rot_moves, trace

# The system side (strata, rational_linalg) is imported by the functions
# that use it, so evaluating a loop does not load it.
if TYPE_CHECKING:
    from .strata import System


TRIVIAL_DEGREES = range(4)  # the degrees of the A whose dA span the trivial cochains


class Loop(NamedTuple):
    """A closed germ chain with optional segment tags; ``initial`` and ``moves`` are read off it."""

    germs: list[Germ]
    tags: list[str] | None = None

    @classmethod
    def replay(cls, initial: GaussDiagram, moves) -> "Loop":
        """The chain of a move list applied at ``initial``, each move checked by ``make_germ``."""
        germs = []
        for m in moves:
            germs.append(make_germ(germs[-1].g1 if germs else initial, m))
        return cls(germs)

    @property
    def initial(self) -> GaussDiagram:
        return self.germs[0].g0

    @property
    def moves(self) -> list[Move]:
        return [move_between(g.g0, g.g1) for g in self.germs]

    def reversed(self) -> "Loop":
        return Loop(reversed_chain(self.germs), self.tags[::-1] if self.tags else None)


def evaluate_loop(alpha: FormalSum, loop: Loop) -> int | Fraction:
    """Sum of the germ pairings over the moves of a closed loop.

    Each germ is paired through ``pair_germ``, which expands only the
    subgerms in the degrees of alpha's terms: for alpha31 that is
    1 + 3(n-3) subgerms per R3 move of degree n, so a loop costs O(n) per
    R3 move instead of 2^n.  A germ is skipped when no term of alpha has
    a kind it can meet (``_MEETS``): an R1 or R2 germ meets only terms of
    its own kind, so alpha31, which has none, pairs only the R3 germs.
    """
    check_closed(loop.germs)
    kinds = {g.kind for g in alpha.keys()}
    return sum(pair_germ(alpha, germ) for germ in loop.germs
               if not kinds.isdisjoint(_MEETS[germ.kind]))


def rot_loop(knot) -> Loop:
    """The rotation loop of a long knot around its axis.

    ``knot`` is a Morse presentation (list of column events), a name in
    ``morse.FIXTURE_MORSE``, or a Gauss diagram canonically equal to one
    of those knots.  Loops for other diagrams need an explicit Morse
    presentation: the loop structure lives in the plane, not in the
    Gauss word alone.  ``rot_moves`` builds the closed germ chain.
    """
    return Loop(*rot_moves(_resolve_morse(knot)))


# What a caller can give instead of a knot with no known presentation.
_FIXTURE_HINT = ("rot-test takes unknot, trefoil or figure8, by name or as a diagram file equal "
                 "to one; from Python, pass the knot's column events to cocycles.rot_loop")


def _resolve_morse(knot):
    if isinstance(knot, list):
        return knot
    if isinstance(knot, str):
        if knot not in FIXTURE_MORSE:
            raise fio.InputError(f"no Morse presentation for {knot!r}: {_FIXTURE_HINT}")
        return FIXTURE_MORSE[knot]
    if isinstance(knot, GaussDiagram):
        for events in FIXTURE_MORSE.values():
            if trace(events).diagram == knot:
                return events
        raise fio.InputError(f"no Morse presentation for this diagram: {_FIXTURE_HINT}")
    raise TypeError(f"cannot build a rotation loop from {knot!r}")


def v2_diagram(fixtures=None) -> ArrowDiagram:
    return fio.load_fixture(fixtures, "formulas/v2_diagram.json", fio.diagram_from_json)


def v2(k: GaussDiagram, fixtures=None) -> int:
    """The Casson invariant of a long knot via its two-arrow formula."""
    return pair(v2_diagram(fixtures), k)


def alpha31(fixtures=None) -> FormalSum:
    """The degree-3 formula normalised by alpha31(rot K) = -v2(K)."""
    return fio.load_fixture(fixtures, "formulas/alpha31.json", fio.formula_from_json)


def trivial_cocycle_vectors(degree: int, allowed) -> tuple[FormalSum, ...]:
    """The nonzero coboundaries dA of a degree that can lie on ``allowed``, a set of germs.

    In arrow-diagram order.  An A is left out, before its dA is computed,
    when it has a death whose germ (``death_germ``) is not in ``allowed``:
    that germ is a +1 term of dA, and no other dA has it, for A is its
    larger side, so A has coefficient 0 in every combination of the dA
    that lives on ``allowed``.  Each dA is a new sum that ``coboundary``
    builds from its cached components, so callers may change them.
    """
    diagrams = (a for a in enumerate_arrow_diagrams(degree)
                if all(death_germ(a, d) in allowed for d in deaths(a)))
    return tuple(db for db in map(coboundary, diagrams) if db)


def trivial_variable_vectors(var_index) -> list[dict[int, Fraction]]:
    """The degree-3 coboundaries that live on the given variables.

    Coboundaries with support outside the variables are not vectors of
    this coordinate space and are skipped; the rest come in
    arrow-diagram enumeration order.  No variable is an R1 or R2 germ, so
    no A with a death has its dA computed (``trivial_cocycle_vectors``).
    """
    from .strata import restrict_to_variables
    out = []
    for db in trivial_cocycle_vectors(3, var_index):
        if any(k not in var_index for k in db.keys()):
            continue
        vec = restrict_to_variables(db, var_index)
        if vec:
            out.append(vec)
    return out


class CocycleReport(NamedTuple):
    violated: list[int]
    trivial: bool
    kernel_dim: int
    trivial_dim: int
    quotient_dim: int

    @property
    def passed(self) -> bool:
        return not self.violated


@functools.cache
def system_dimensions(system: System):
    """(kernel dim, trivial-subspace dim, quotient dim) of the system.

    Computed once per system: systems hash by identity.
    """
    from .rational_linalg import SparseMatrix, rank
    mat = system.matrix()
    kdim = len(system.variables) - rank(mat)
    trivs = trivial_variable_vectors(system.var_index)
    tmat = SparseMatrix(len(trivs), len(system.variables), trivs)
    tdim = rank(tmat)
    return kdim, tdim, kdim - tdim


def verify_cocycle(alpha: FormalSum, system: System | None = None) -> CocycleReport:
    """Check a cochain against every stored meridian functional.

    Violations are computed with the full pairing (all germ kinds), so
    coboundaries dA pass by the Stokes formula even though they carry
    R1 and R2 terms.  ``alpha`` is reported trivial when it lies in the
    span of the coboundaries dA with deg A in ``TRIVIAL_DEGREES``, 0 to 3;
    only the dA that can meet alpha's terms are computed.  The dimensions
    are those of the system.
    """
    from .rational_linalg import solve_in_span
    if system is None:
        system = assemble_default_system()
    violated = [i for i, fs in enumerate(system.full_rows) if alpha.dot(fs) != 0]

    rows = [{g.key(): c for g, c in db.items()}
            for deg in TRIVIAL_DEGREES for db in trivial_cocycle_vectors(deg, alpha.keys())]
    target = {g.key(): c for g, c in alpha.items()}
    trivial = solve_in_span(rows, target) is not None

    kdim, tdim, qdim = system_dimensions(system)
    return CocycleReport(violated, trivial, kdim, tdim, qdim)


@functools.cache
def assemble_default_system(bystanders: bool = False) -> System:
    """The degree-3 system, assembled once per process; callers must not mutate it.

    Its meridians are the 144 cube ones, the 5,760 one-bystander ones
    with ``bystanders``, then ``quadruple.tetrahedron_meridians``; they
    are streamed, so the bystander ones are not all held at once.
    """
    from .quadruple import tetrahedron_meridians
    from .strata import assemble_system, enumerate_cube_meridians
    return assemble_system(itertools.chain(
        enumerate_cube_meridians(0), enumerate_cube_meridians(1) if bystanders else (),
        tetrahedron_meridians()))
