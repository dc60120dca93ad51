"""The Theorem 1 parameter-v transformation (grouping atoms by variable set).

For the W[1] upper bound under the number-of-variables parameter, the paper
transforms a conjunctive query Q and database d into an equivalent pair
(Q', d') in which Q' has at most one atom per nonempty *variable set*
S ⊆ vars(Q) — hence at most 2^v atoms — so the parameter-q machinery
applies.  For each such S, the new relation R_S is the intersection over
the atoms a with variable set S of a's candidate relation P_a.

The transformation preserves the set of satisfying instantiations exactly,
so it supports full evaluation, not only the Boolean decision.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from ..errors import QueryError
from ..query.atoms import Atom
from ..query.conjunctive import ConjunctiveQuery
from ..query.terms import Variable
from ..relational.database import Database
from ..relational.relation import Relation
from .instantiation import atom_candidate_relation


def group_relation_name(variables: Tuple[Variable, ...]) -> str:
    """Deterministic name for the grouped relation R_S."""
    return "GRP_" + "_".join(v.name for v in variables)


def parameter_v_transform(
    query: ConjunctiveQuery, database: Database
) -> Tuple[ConjunctiveQuery, Database]:
    """Return (Q', d') with |atoms(Q')| ≤ 2^v and identical satisfying sets.

    Q' keeps the original head; its body has one atom ``R_S(x_{i1}...x_{ir})``
    per distinct nonempty variable set S of Q's atoms (canonical variable
    order: sorted by name), where R_S is the intersection of the candidate
    relations of the atoms in A_S.  Variable-free atoms contribute a 0-ary
    relation (TRUE/FALSE gate).
    """
    if query.inequalities or query.comparisons:
        raise QueryError(
            "parameter_v_transform is defined for purely relational queries"
        )

    groups: Dict[FrozenSet[Variable], List[Atom]] = {}
    for atom in query.atoms:
        groups.setdefault(atom.variable_set(), []).append(atom)

    new_atoms: List[Atom] = []
    new_relations: Dict[str, Relation] = {}
    for var_set, atoms in sorted(
        groups.items(), key=lambda kv: sorted(v.name for v in kv[0])
    ):
        ordered = tuple(sorted(var_set, key=lambda v: v.name))
        name = group_relation_name(ordered)
        attribute_order = tuple(v.name for v in ordered)
        grouped: Relation = None  # type: ignore[assignment]
        for atom in atoms:
            candidate = atom_candidate_relation(atom, database[atom.relation])
            aligned = candidate.project(attribute_order)
            grouped = aligned if grouped is None else grouped.intersection(aligned)
        new_relations[name] = grouped
        new_atoms.append(Atom(name, ordered))

    new_query = ConjunctiveQuery(
        query.head_terms, new_atoms, head_name=query.head_name
    )
    # d' declares no domain: every grouped value comes from d, and no CQ
    # evaluator reads ``domain()``, so declaring d's would only re-scan
    # every grouped row to validate it.
    new_database = Database(new_relations)
    return new_query, new_database
