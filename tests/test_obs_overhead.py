"""The default (untraced) path must not pay for the tracing subsystem."""

import repro.obs.tracer as tracer_module
from repro import Executor, compile_query, optimize
from repro.obs import NullTracer

SQL = (
    "SELECT * FROM t3, t6, t10 "
    "WHERE t3.ua1 = t6.a1 AND t6.ua1 = t10.a1 "
    "AND costly100sel10(t3.u20)"
)


def _plan_and_run(db, query, tracer=None):
    optimized = optimize(db, query, strategy="migration", tracer=tracer)
    Executor(db, tracer=tracer).execute(optimized.plan)


def test_default_path_constructs_zero_spans(db, monkeypatch):
    """The acceptance bar: no Span object is ever built unless a real
    Tracer was passed in — by default or with an explicit NullTracer."""
    constructed = []
    original_init = tracer_module.Span.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(self)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(tracer_module.Span, "__init__", counting_init)
    query = compile_query(db, SQL, name="overhead-spans")
    _plan_and_run(db, query)  # tracer defaults to NULL_TRACER
    assert constructed == []
    _plan_and_run(db, query, tracer=NullTracer())
    assert constructed == []

    _plan_and_run(db, query, tracer=tracer_module.Tracer())
    assert constructed  # sanity: the counter does fire when traced
