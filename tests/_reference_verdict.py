"""The predicate evaluator the engine used before predicates were linked,
kept as the reference that `test_linked_predicates.py` checks the linked
verdict functions against.  Do not edit it to follow the engine.

It walks the predicate's tree on every call: a comparison resolves its
reference through `get` (an object's property) or the edge (a relation's),
and is None on an Undefined value; `!` keeps None; `&` stops at the first
False and `|` at the first True, in the order written; an absent predicate
is True.
"""

from vidquery.datamodel import UNDEFINED
from vidquery.dsl.ast import And, Compare, Not, Or
from vidquery.operators import compare


def resolve(get, ref, env: dict, edge):
    if ref.relation is not None:
        return edge.properties.get(ref.prop, UNDEFINED)
    return get(env[ref.binding], ref.prop)


def verdict(get, expr, env: dict, edge=None):
    """Kleene three-valued verdict of `expr` with its bindings' objects in
    `env`, reading properties through `get(node, prop)`."""
    if expr is None:
        return True
    if isinstance(expr, Compare):
        value = resolve(get, expr.ref, env, edge)
        if value is UNDEFINED:
            return None
        return compare(value, expr.op, expr.literal)
    if isinstance(expr, Not):
        v = verdict(get, expr.item, env, edge)
        return None if v is None else not v
    if isinstance(expr, (And, Or)):
        stop = isinstance(expr, Or)  # the value that decides alone
        result = not stop
        for item in expr.items:
            v = verdict(get, item, env, edge)
            if v is stop:
                return stop
            if v is None:
                result = None
        return result
    raise TypeError(f"not a predicate: {expr!r}")
