def report(metrics, sealing_key):
    metrics.labels(sealing_key)


def trace(tracer, keymgr):
    session_key = keymgr.session_key("enclave-1")
    tracer.add_span("attest", key=session_key)


def trace_later(tracer, keymgr, build):
    session_key = keymgr.session_key("enclave-1")
    tracer.add_deferred(1, build, (session_key,))


def log_it(logger, private_key):
    logger.info("key=%s", private_key)


def banner(attestation_key):
    return f"attesting with {attestation_key}"


def wire(PrimitiveRequest, derived_key):
    return PrimitiveRequest(payload=derived_key)
