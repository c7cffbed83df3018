"""Authorization: slice the policy set by scope keys, evaluate, combine.

Forbid trumps permit and the default is deny.  Errored policies count as
unsatisfied and are reported in the decision's diagnostics.  The slicer
buckets each closed policy under the entity named in its principal/resource
scope constraint (or Any) and looks buckets up through the request's ancestor
sets, which is sound: a policy outside the slice cannot be satisfied.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Mapping, Optional

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
from .entities import EntityStore, Request
from .evaluator import PolicyEvalStatus, evaluate_policy


class DuplicatePolicyId(CedarError):
    pass


@dataclass(frozen=True)
class PolicySet:
    """Closed policies plus templates and their links.

    Links are materialized into closed policies eagerly at construction, so
    indexing and evaluation only ever see closed policies.  The scope index
    and the id lookup ``by_id`` are built lazily, once, on first use.
    """

    closed_policies: tuple
    templates: tuple
    links: tuple  # ((template_id, bindings, link_id), ...)

    @staticmethod
    def from_policies(policies: Iterable[Policy], links: Iterable = ()) -> "PolicySet":
        closed = []
        templates = []
        for p in policies:
            (templates if p.is_template() else closed).append(p)
        template_by_id = {t.id: t for t in templates}
        link_rows = []
        for template_id, bindings, link_id in links:
            if template_id not in template_by_id:
                raise CedarError(f"link references unknown template {template_id}")
            closed.append(link(template_by_id[template_id], dict(bindings), link_id))
            link_rows.append((template_id, tuple(sorted(bindings.items())), link_id))
        seen = set()
        for p in closed + templates:
            if p.id in seen:
                raise DuplicatePolicyId(f"duplicate policy id {p.id}")
            seen.add(p.id)
        return PolicySet(tuple(closed), tuple(templates), tuple(link_rows))

    def all_policies(self) -> tuple:
        return self.closed_policies + self.templates

    @cached_property
    def index(self) -> PolicyIndex:
        return build_index(self)

    @cached_property
    def by_id(self) -> Callable[[str], Optional[Policy]]:
        return {p.id: p for p in self.all_policies()}.get


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


@dataclass(frozen=True)
class PolicyIndex:
    buckets: Mapping  # (principal_key, resource_key) -> frozenset of policy ids


def build_index(policies: PolicySet) -> PolicyIndex:
    """Bucket every closed policy under its scope key pair."""
    buckets: dict = {}
    for p in policies.closed_policies:
        buckets.setdefault((pof(p), rof(p)), set()).add(p.id)
    return PolicyIndex({k: frozenset(v) for k, v in buckets.items()})


def slice_policies(index: PolicyIndex, store: EntityStore, request: Request) -> frozenset:
    """Ids of the policies possibly relevant to the request.

    Key set: (ancestors(P) + {P, Any}) x (ancestors(R) + {R, Any}).
    """
    p_keys = set(store.ancestors_of(request.principal)) | {request.principal, ANY_KEY}
    r_keys = set(store.ancestors_of(request.resource)) | {request.resource, ANY_KEY}
    out: set = set()
    for pk in p_keys:
        for rk in r_keys:
            got = index.buckets.get((pk, rk))
            if got:
                out |= got
    return frozenset(out)


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
    candidates = policies.closed_policies
    if use_slicing:
        candidates = [policies.by_id(pid) for pid in slice_policies(policies.index, store, request)]
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
