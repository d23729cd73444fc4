"""``repro serve`` — the async simulation service.

A long-running daemon owning one persistent runner pool and the result
cache, so interactive sweeps and CI jobs share warm state instead of
paying cold-start per invocation.  The serving layer re-applies the
paper's reuse idea at request granularity: identical in-flight requests
*coalesce* onto one execution (keyed by the runtime's content-addressed
cache key) exactly as the mechanism reuses a control-independent slice
instead of re-executing it.

Modules: ``protocol`` (versioned wire types), ``queue`` (arrival-order
FIFO + coalescing), ``scheduler`` (dispatch + pool supervision),
``journal`` (the crash-safety write-ahead log), ``server`` (asyncio
front end and its bounded-depth admission check), ``client`` (resilient
wire client + thin-client runner), ``metrics`` (Prometheus / healthz).
Import names from those modules: the package itself loads nothing, so
using one module never pulls in the daemon, ``asyncio`` or
``http.client``.
"""
