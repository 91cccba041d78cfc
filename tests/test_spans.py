"""The benchmark's span tracer wraps srlab layers by name; a rename or a
moved binding must fail here rather than silently shrink a traced run."""
import importlib.util
import pathlib

import scipy.sparse.linalg

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_tracer_wraps_every_layer_binding():
    from srlab import cli

    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    splu, build_system = scipy.sparse.linalg.splu, cli.build_system
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = len(tracer._restore)
        assert cli.build_system is not build_system
    finally:
        tracer.restore()
    assert patched == 29
    assert scipy.sparse.linalg.splu is splu
    assert cli.build_system is build_system
