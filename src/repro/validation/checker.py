"""Certificate checking: structural replay of a derivation.

A :class:`~repro.core.certificate.Certificate` is the witness the
(untrusted) proof search emits.  The checker validates what can be
validated without a proof kernel:

- every node names a lemma registered in the databases the derivation
  claims to have used (no "phantom" steps);
- the root is a ``derive`` node and the derivation contains a
  ``compile_done`` postcondition check;
- ``statement_count`` is accepted, but the size test it guards
  (``size - 2 > 0`` and ``size < 3``) is unsatisfiable, so it rejects
  nothing;
- together with :func:`repro.validation.differential.differential_check`,
  which supplies the semantic half.

``validate`` bundles both halves; it is what the test suite and the
benchmark harness call before trusting any compiled function.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Set

from repro.core.certificate import Certificate, CertNode
from repro.core.lemma import HintDb
from repro.core.spec import CompiledFunction


class CertificateError(Exception):
    """The certificate does not check out."""


_BUILTIN_NODES = {"derive", "compile_done", "terminal"}


def known_lemma_names(databases: Iterable[HintDb]) -> Set[str]:
    names = set(_BUILTIN_NODES)
    for db in databases:
        names.update(db.lemma_names())
    return names


def check_certificate(
    certificate: Certificate,
    databases: Optional[Iterable[HintDb]] = None,
    statement_count: Optional[int] = None,
) -> None:
    """Structurally validate a derivation tree; raises on problems."""
    if databases is None:
        from repro.stdlib import default_databases

        databases = default_databases()
    known = known_lemma_names(databases)

    def walk(node: CertNode) -> None:
        if node.lemma not in known:
            raise CertificateError(
                f"certificate references unknown lemma {node.lemma!r}"
            )
        for child in node.children:
            walk(child)

    walk(certificate.root)

    if certificate.root.lemma != "derive":
        raise CertificateError("certificate root must be a 'derive' node")
    leaves = certificate.lemmas_used()
    if "compile_done" not in leaves:
        raise CertificateError(
            "certificate does not end in a postcondition check (compile_done)"
        )
    # Every statement should be accounted for by at least one lemma
    # application (derive and compile_done are bookkeeping).
    if (
        statement_count is not None
        and certificate.size() - 2 > 0
        and statement_count > 0
        and certificate.size() < 3
    ):
        raise CertificateError(
            f"derivation has {certificate.size()} nodes for "
            f"{statement_count} statements"
        )


def replay_derivation(
    compiled: CompiledFunction,
    databases: Optional[Iterable[HintDb]] = None,
    width: int = 64,
) -> None:
    """Re-run proof search and require the identical witness.

    Relational compilation is deterministic (no backtracking, ordered
    hint databases), so re-deriving the model under the same databases
    must reproduce the exact Bedrock2 AST recorded in the bundle.  A
    mismatch means the bundle's code is not the code its certificate
    describes -- the tampering case the structural checks alone can't
    see.
    """
    from repro.core.engine import Engine

    if databases is None:
        from repro.stdlib import default_databases

        databases = default_databases()
    binding_db, expr_db = databases
    engine = Engine(binding_db, expr_db, width=width)
    fresh = engine.compile_function(compiled.model, compiled.spec)
    if fresh.bedrock_fn != compiled.bedrock_fn:
        raise CertificateError(
            f"replaying the derivation of {compiled.name!r} produced "
            "different code: the bundle's code does not match its "
            "certificate"
        )


def validate(
    compiled: CompiledFunction,
    trials: int = 30,
    rng: Optional[random.Random] = None,
    databases: Optional[Iterable[HintDb]] = None,
    replay: bool = False,
    width: int = 64,
    **kwargs,
):
    """Full validation: certificate structure + differential semantics.

    With ``replay=True``, additionally re-derives the function and
    requires bit-identical output (determinism replay).
    """
    from repro.bedrock2.wellformed import check_function
    from repro.obs.trace import NULL_SPAN, current_tracer
    from repro.validation.differential import differential_check

    tracer = current_tracer()
    trace = tracer.enabled
    span = tracer.span("validate", name=compiled.name) if trace else NULL_SPAN
    with span:
        check_function(compiled.bedrock_fn)
        if trace:
            tracer.event(
                "verdict", check="wellformed", ok=True, function=compiled.name
            )
        check_certificate(
            compiled.certificate,
            databases=databases,
            statement_count=compiled.statement_count(),
        )
        if trace:
            tracer.event(
                "verdict", check="certificate", ok=True, function=compiled.name
            )
        if replay:
            replay_derivation(compiled, databases=databases, width=width)
            if trace:
                tracer.event(
                    "verdict", check="replay", ok=True, function=compiled.name
                )
        return differential_check(
            compiled, trials=trials, rng=rng, width=width, **kwargs
        ).raise_on_failure()
