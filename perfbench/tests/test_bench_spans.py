from types import SimpleNamespace

import pytest

import spans
from spans import Span


def test_self_time_on_hand_built_tree():
    #  a [0, 10]
    #  +- b [1, 4]
    #  |  +- c [2, 3]
    #  +- a (nested) [5, 9]
    #     +- c [6, 8]
    tree = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 4.0, 0),
        Span("c", 2.0, 3.0, 1),
        Span("a", 5.0, 9.0, 0, nested=True),
        Span("c", 6.0, 8.0, 3),
    ]
    st = spans.layer_stats(tree)
    assert st["a"].calls == 2
    assert st["a"].self_s == pytest.approx((10 - 3 - 4) + (4 - 2))
    assert st["a"].inclusive_s == pytest.approx(10.0)  # the nested call is inside the outer one
    assert st["b"].self_s == pytest.approx(2.0)
    assert st["b"].inclusive_s == pytest.approx(3.0)
    assert st["c"].calls == 2
    assert st["c"].self_s == pytest.approx(3.0)


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_tracer_records_nesting_and_restores_patches():
    def leaf():
        return "leaf"

    mod = SimpleNamespace(leaf=leaf)

    def outer():
        return mod.leaf() + "!"

    mod.outer = outer
    tracer = spans.Tracer(clock=_Clock())
    assert tracer.patch(mod, "outer", "m.outer")
    assert tracer.patch(mod, "leaf", "m.leaf")
    assert not tracer.patch(mod, "gone", "m.gone")
    assert not tracer.patch(None, "infer", "arch.block7.infer")
    assert mod.outer() == "leaf!"
    tracer.uninstall()
    assert mod.outer is outer and mod.leaf is leaf
    assert tracer.absent == {"m.gone", "arch.block7.infer"}
    # clock ticks: outer start 1, leaf 2..3, outer end 4
    st = tracer.stats()
    assert st["m.outer"].inclusive_s == 3.0 and st["m.outer"].self_s == 2.0
    assert st["m.leaf"].self_s == 1.0
    assert tracer.count_under("m.leaf", "m.outer") == 1
    assert tracer.count_child_of("m.leaf", {"m.outer"}) == 1


def test_class_and_instance_patches_are_removed():
    class Layer:
        def infer(self, x):
            return x + 1

        @staticmethod
        def scale(x):
            return 2 * x

        @classmethod
        def make(cls):
            return cls()

    original = Layer.__dict__["infer"]
    lay = Layer()
    tracer = spans.Tracer()
    tracer.patch(Layer, "infer", "Layer.infer")
    tracer.patch(lay, "infer", "lay.infer")
    tracer.patch(Layer, "scale", "Layer.scale")
    tracer.patch(Layer, "make", "Layer.make")
    assert lay.infer(1) == 2 and Layer().infer(2) == 3
    assert lay.scale(3) == 6 and isinstance(Layer.make(), Layer)
    tracer.uninstall()
    assert Layer.__dict__["infer"] is original and "infer" not in vars(lay)
    names = [s.name for s in tracer.spans]
    assert names == ["lay.infer", "Layer.infer", "Layer.infer", "Layer.scale", "Layer.make"]
    assert tracer.spans[1].parent == 0


def test_install_reports_vanished_callables_as_absent(monkeypatch):
    import eebnn
    import layer_trace
    from eebnn import arch

    monkeypatch.delattr(eebnn.runtime, "infer_fixed_exit")
    monkeypatch.delattr(eebnn.layers.RealConv2d, "infer")
    model = arch.build(arch.toy_spec("quicknet", n_classes=6), seed=0)
    model.blocks = model.blocks[:4]
    original = eebnn.runtime.infer_early_exit
    tracer = spans.Tracer()
    layer_trace.install(tracer, eebnn, [model])
    assert eebnn.runtime.infer_early_exit is not original
    tracer.uninstall()
    assert eebnn.runtime.infer_early_exit is original
    assert tracer.absent == {"runtime.infer_fixed_exit", "layers.RealConv2d.infer",
                             "arch.block5.infer", "arch.block6.infer"}
    metrics = layer_trace.per_layer_metrics(tracer, samples=1, load_model_ms=0.0,
                                            overhead_share=0.0)
    assert [name for name, _, _ in layer_trace.PER_LAYER] == list(metrics)
