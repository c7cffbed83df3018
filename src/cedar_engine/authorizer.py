"""Authorization: slice the policy set by scope keys, evaluate, combine.

Forbid trumps permit and the default is deny.  Errored policies count as
unsatisfied and are reported in the decision's diagnostics.  The slicer
indexes each closed policy by the entities named in its principal and
resource scope constraints (or Any), principal key first, and looks buckets
up through the request's ancestor sets, which is sound: a policy outside the
slice cannot be satisfied.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable

from .ast import (
    CedarError,
    Effect,
    EntityRef,
    Policy,
    Scope,
    ScopeEq,
    ScopeIn,
    link,
)
from .entities import EntityStore, Request, _collector_paused
from .evaluator import PolicyEvalStatus, evaluate_policy


class DuplicatePolicyId(CedarError):
    pass


@dataclass(frozen=True)
class PolicySet:
    """Closed policies (template links included) plus templates.

    Links are materialized into closed policies eagerly at construction, so
    indexing and evaluation only ever see closed policies.  The scope index
    is built lazily, once, on first use.
    """

    closed_policies: tuple
    templates: tuple

    @staticmethod
    @_collector_paused()
    def from_policies(policies: Iterable[Policy], links: Iterable = ()) -> "PolicySet":
        closed = []
        templates = []
        for p in policies:
            (templates if p.is_template() else closed).append(p)
        template_by_id = {t.id: t for t in templates}
        for template_id, bindings, link_id in links:
            if template_id not in template_by_id:
                raise CedarError(f"link references unknown template {template_id}")
            closed.append(link(template_by_id[template_id], dict(bindings), link_id))
        seen = set()
        for p in closed + templates:
            if p.id in seen:
                raise DuplicatePolicyId(f"duplicate policy id {p.id}")
            seen.add(p.id)
        return PolicySet(tuple(closed), tuple(templates))

    def all_policies(self) -> tuple:
        return self.closed_policies + self.templates

    @cached_property
    def index(self) -> dict:
        return build_index(self)


# The index key component for an unconstrained scope.
ANY_KEY = "Any"


def _key_of(scope: Scope):
    if isinstance(scope, (ScopeEq, ScopeIn)) and isinstance(scope.target, EntityRef):
        return scope.target
    return ANY_KEY


def pof(policy: Policy):
    return _key_of(policy.principal)


def rof(policy: Policy):
    return _key_of(policy.resource)


def build_index(policies: PolicySet) -> dict:
    """principal key -> {resource key -> the closed policies with that key pair}."""
    index: dict = {}
    for p in policies.closed_policies:
        index.setdefault(pof(p), {}).setdefault(rof(p), []).append(p)
    return {pk: {rk: tuple(ps) for rk, ps in by_resource.items()} for pk, by_resource in index.items()}


def slice_policies(index: dict, store: EntityStore, request: Request) -> list:
    """The closed policies possibly relevant to the request, each once.

    Principal keys (P, *ancestors(P), Any) are probed, and only under those
    present are resource keys (R, *ancestors(R), Any).  Buckets are disjoint
    and an acyclic store never lists an entity among its own ancestors, so no
    policy is reached twice.
    """
    r_keys = (request.resource, *store.ancestors_of(request.resource), ANY_KEY)
    out: list = []
    for pk in (request.principal, *store.ancestors_of(request.principal), ANY_KEY):
        by_resource = index.get(pk)
        if by_resource is not None:
            for rk in r_keys:
                got = by_resource.get(rk)
                if got is not None:
                    out += got
    return out


class Verdict(Enum):
    ALLOW = "ALLOW"
    DENY = "DENY"


@dataclass(frozen=True)
class Decision:
    verdict: Verdict
    determining: frozenset  # policy ids
    errors: tuple  # ((policy_id, EvalError), ...) sorted by policy id


def authorize(
    policies: PolicySet,
    store: EntityStore,
    request: Request,
    use_slicing: bool = True,
) -> Decision:
    """Allow iff no satisfied forbid policy and at least one satisfied permit."""
    candidates = slice_policies(policies.index, store, request) if use_slicing else policies.closed_policies
    satisfied_permits = set()
    satisfied_forbids = set()
    errors = []
    for p in candidates:
        outcome = evaluate_policy(p, store, request)
        if outcome.status is PolicyEvalStatus.SATISFIED:
            if p.effect is Effect.PERMIT:
                satisfied_permits.add(p.id)
            else:
                satisfied_forbids.add(p.id)
        elif outcome.status is PolicyEvalStatus.ERRORED:
            errors.append((p.id, outcome.error))
    errors.sort(key=lambda pair: pair[0])
    if not satisfied_forbids and satisfied_permits:
        return Decision(Verdict.ALLOW, frozenset(satisfied_permits), tuple(errors))
    return Decision(Verdict.DENY, frozenset(satisfied_forbids), tuple(errors))
