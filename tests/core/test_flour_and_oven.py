"""Tests for Flour programs and the Oven optimizer (rules, steps, plans)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PretzelConfig
from repro.core.engines import execute_plan
from repro.core.flour import FlourContext, flour_from_pipeline
from repro.core.object_store import ObjectStore
from repro.core.oven.compiler import ModelPlanCompiler
from repro.core.oven.logical import SOURCE, GraphValidationError, TransformGraph, TransformNode
from repro.core.oven.optimizer import OvenOptimizer
from repro.core.oven.rewrite_ops import (
    ARRAY_LINK_FUNCTIONS,
    LINK_FUNCTIONS,
    MarginCombiner,
    PartialLinearScorer,
)
from repro.core.oven.rules import PushLinearModelThroughConcatRule
from repro.operators import Tokenizer, WordNgramFeaturizer
from repro.operators.base import ValueKind
from repro.operators.vectors import DenseVector


class TestFlourApi:
    def test_fluent_program_matches_pipeline(self, sa_pipeline, sa_inputs):
        """Building the SA program through the fluent API gives the same plan."""
        context = FlourContext(name="fluent-sa")
        tokenizer = sa_pipeline.nodes["tokenizer"].operator
        char = sa_pipeline.nodes["char_ngram"].operator
        word = sa_pipeline.nodes["word_ngram"].operator
        classifier = sa_pipeline.nodes["classifier"].operator
        tokens = context.csv.from_text(",").with_schema(["Text"]).select("Text").tokenize(tokenizer)
        program = tokens.char_ngram(char).concat(tokens.word_ngram(word)).classifier_binary_linear(classifier)
        plan = program.plan()
        # ColumnSelector + the SA operators; the plan must score like ML.Net
        # modulo the Select stage consuming a record dict.
        record = {"Text": sa_inputs[0]}
        assert execute_plan(plan, record) == pytest.approx(sa_pipeline.predict(sa_inputs[0]))

    def test_flour_from_pipeline_structure(self, sa_pipeline):
        program = flour_from_pipeline(sa_pipeline)
        graph = program.to_transform_graph()
        assert len(graph) == 5
        assert graph.metadata["input_kind"] == ValueKind.TEXT

    def test_stats_are_attached(self, sa_pipeline):
        from repro.core.statistics import TransformStats

        stats = {"char_ngram": TransformStats(max_vector_size=123, is_sparse=True)}
        program = flour_from_pipeline(sa_pipeline, stats=stats)
        graph = program.to_transform_graph()
        sizes = [node.stats.max_vector_size for node in graph.nodes.values()]
        assert 123 in sizes


class TestInputSchema:
    """``FlourProgram.input_schema``: what the serving tier compiles its frames from."""

    def test_row_pipeline_reports_its_selectors_columns(self, ac_pipeline):
        from repro.workloads.events_data import FEATURE_NAMES

        selector = ac_pipeline.nodes["selector"].operator
        schema = flour_from_pipeline(ac_pipeline).input_schema()
        assert schema == tuple(FEATURE_NAMES)
        # one interned str per column name, however often the pipeline is unpickled
        import pickle

        again = flour_from_pipeline(pickle.loads(pickle.dumps(ac_pipeline))).input_schema()
        assert all(left is right for left, right in zip(schema, again))
        assert all(left == right for left, right in zip(schema, selector.columns))

    def test_text_pipeline_reports_the_empty_schema(self, sa_pipeline):
        assert flour_from_pipeline(sa_pipeline).input_schema() == ()

    def test_union_of_entry_selectors_in_first_seen_order(self):
        from repro.mlnet.pipeline import Pipeline
        from repro.operators.featurizers import ColumnSelector, ConcatFeaturizer
        from repro.operators.linear import LinearRegressor

        pipeline = Pipeline("two-entries")
        pipeline.add("left", ColumnSelector(["b", "a"]), ["input"])
        pipeline.add("right", ColumnSelector(["c", "b"]), ["input"])
        pipeline.add("concat", ConcatFeaturizer([2, 2]), ["left", "right"])
        pipeline.add("model", LinearRegressor(), ["concat"])
        assert flour_from_pipeline(pipeline).input_schema() == ("b", "a", "c")

    def test_anything_else_reading_the_input_means_no_schema(self, sa_pipeline):
        from repro.mlnet.pipeline import Pipeline
        from repro.operators.featurizers import ColumnSelector

        textual = Pipeline("textual-select")
        textual.add("select", ColumnSelector(["Text"], textual=True), ["input"])
        textual.add("tokenizer", sa_pipeline.nodes["tokenizer"].operator, ["select"])
        textual.add("char", sa_pipeline.nodes["char_ngram"].operator, ["tokenizer"])
        textual.add("classifier", sa_pipeline.nodes["classifier"].operator, ["char"])
        assert flour_from_pipeline(textual).input_schema() is None

    def test_hand_written_program_reports_its_declared_fields(self, sa_pipeline):
        context = FlourContext(name="declared")
        source = context.csv.from_text(",").with_schema(["Text", "Stars"])
        program = source.select("Text").tokenize(
            sa_pipeline.nodes["tokenizer"].operator
        ).char_ngram(sa_pipeline.nodes["char_ngram"].operator).classifier_binary_linear(
            sa_pipeline.nodes["classifier"].operator
        )
        assert program.input_schema() == ("Text", "Stars")
        undeclared = context.source(ValueKind.ROW).select("Text").tokenize(
            sa_pipeline.nodes["tokenizer"].operator
        ).char_ngram(sa_pipeline.nodes["char_ngram"].operator).classifier_binary_linear(
            sa_pipeline.nodes["classifier"].operator
        )
        assert undeclared.input_schema() is None


class TestOvenOptimizer:
    def _optimize(self, pipeline):
        graph = flour_from_pipeline(pipeline).to_transform_graph()
        return OvenOptimizer().optimize(graph)

    def test_sa_stage_structure(self, sa_pipeline):
        """Tokenizer fuses with CharNgram; Concat+LogReg become partial scorers."""
        stage_graph = self._optimize(sa_pipeline)
        operator_sets = [
            [node.operator.name for node in stage.transforms] for stage in stage_graph
        ]
        assert ["Tokenizer", "CharNgram"] in operator_sets
        assert ["WordNgram"] in operator_sets
        flattened = [name for stage in operator_sets for name in stage]
        assert "Concat" not in flattened
        assert "PartialLinear" in flattened
        assert "MarginCombiner" in flattened

    def test_ac_keeps_concat(self, ac_pipeline):
        """Tree-based sinks cannot be pushed through Concat."""
        stage_graph = self._optimize(ac_pipeline)
        flattened = [
            node.operator.name for stage in stage_graph for node in stage.transforms
        ]
        assert "Concat" in flattened

    def test_ac_fuses_row_featurizers(self, ac_pipeline):
        stage_graph = self._optimize(ac_pipeline)
        operator_sets = [
            [node.operator.name for node in stage.transforms] for stage in stage_graph
        ]
        assert ["ColumnSelector", "MissingValueImputer", "MinMaxNormalizer"] in operator_sets

    def test_stage_labelling(self, sa_pipeline):
        stage_graph = self._optimize(sa_pipeline)
        featurizer_stages = [
            stage
            for stage in stage_graph
            if any(node.operator.name == "CharNgram" for node in stage.transforms)
        ]
        assert featurizer_stages[0].is_sparse
        assert featurizer_stages[0].max_vector_size > 0

    def test_fusion_disabled_one_stage_per_operator(self, sa_pipeline):
        graph = flour_from_pipeline(sa_pipeline).to_transform_graph()
        stage_graph = OvenOptimizer(enable_stage_fusion=False, enable_logical_rewrites=False).optimize(graph)
        assert len(stage_graph) == 5

    def test_rewrites_recorded_in_metadata(self, sa_pipeline):
        stage_graph = self._optimize(sa_pipeline)
        rules = [entry["rule"] for entry in stage_graph.metadata.get("rewrites", [])]
        assert "PushLinearModelThroughConcat" in rules

    def test_invalid_graph_rejected(self):
        graph = TransformGraph("broken")
        # WordNgram directly on the raw text source (expects tokens).
        featurizer = WordNgramFeaturizer(ngram_range=(1, 1), max_features=4).fit([["a"]])
        graph.add_node(TransformNode(featurizer, [SOURCE]))
        graph.metadata["input_kind"] = ValueKind.TEXT
        with pytest.raises(GraphValidationError):
            OvenOptimizer().optimize(graph)


class TestPushThroughConcatEquivalence:
    def test_partial_scores_equal_full_model(self, small_corpus, sa_pipeline, sa_inputs):
        """The rewritten plan computes exactly the original probability."""
        graph = flour_from_pipeline(sa_pipeline).to_transform_graph()
        stage_graph = OvenOptimizer().optimize(graph)
        plan = ModelPlanCompiler().compile(stage_graph)
        for text in sa_inputs:
            assert execute_plan(plan, text) == pytest.approx(sa_pipeline.predict(text))

    def test_rule_requires_known_sizes(self):
        """Without resolved branch sizes the rule must not fire."""
        rule = PushLinearModelThroughConcatRule()
        from repro.core.oven.logical import StageGraph

        assert rule.apply(StageGraph("empty")) is False


class TestRewriteOps:
    def test_partial_linear_scorer(self):
        scorer = PartialLinearScorer(np.array([1.0, 2.0]), bias=0.5, branch_index=0)
        assert scorer.transform(DenseVector([1.0, 1.0])) == pytest.approx(3.5)

    def test_margin_combiner_links(self):
        assert MarginCombiner("identity").transform([1.0, 2.0]) == pytest.approx(3.0)
        assert MarginCombiner("sigmoid").transform([0.0, 0.0]) == pytest.approx(0.5)
        assert MarginCombiner("exp").transform([1.0]) == pytest.approx(np.exp(1.0))

    def test_unknown_link_rejected(self):
        with pytest.raises(ValueError):
            MarginCombiner("cube")

    def test_link_registry_complete(self):
        assert set(LINK_FUNCTIONS) == {"identity", "sigmoid", "exp"}

    @pytest.mark.parametrize("name", ["sigmoid", "exp"])
    @pytest.mark.parametrize(
        "margin",
        [
            0.0,
            -0.0,
            30.0,
            -30.0,
            math.nextafter(30.0, math.inf),
            math.nextafter(-30.0, -math.inf),
            30.5,
            -31.0,
            math.inf,
            -math.inf,
            math.nan,
        ],
    )
    def test_scalar_link_edges_are_bit_equal_to_the_clip_expression(self, name, margin):
        _assert_scalar_link_pinned(name, margin)

    @settings(max_examples=300, deadline=None)
    @given(
        margin=st.floats(allow_nan=True, allow_infinity=True),
        name=st.sampled_from(["sigmoid", "exp"]),
    )
    def test_scalar_link_is_bit_equal_to_the_clip_expression_property(self, margin, name):
        _assert_scalar_link_pinned(name, margin)


#: the scalar links' former ``np.clip`` expressions, the reference they keep
_CLIP_LINKS = {
    "sigmoid": lambda margin: float(1.0 / (1.0 + np.exp(-np.clip(margin, -30.0, 30.0)))),
    "exp": lambda margin: float(np.exp(np.clip(margin, -30.0, 30.0))),
}


def _assert_scalar_link_pinned(name, margin):
    """The builtin-clamped scalar link equals, bit for bit, the ``np.clip``
    expression and the array link on a one-element array."""
    actual = LINK_FUNCTIONS[name](margin)
    assert isinstance(actual, float)
    expected = (
        _CLIP_LINKS[name](margin),
        float(ARRAY_LINK_FUNCTIONS[name](np.array([margin]))[0]),
    )
    for reference in expected:
        assert np.float64(actual).tobytes() == np.float64(reference).tobytes()


class TestModelPlanCompiler:
    def test_identical_pipelines_share_physical_stages(self, sa_pipeline, sa_pipeline_variant):
        store = ObjectStore()
        compiler = ModelPlanCompiler(object_store=store)
        plan_a = compiler.compile(
            OvenOptimizer().optimize(flour_from_pipeline(sa_pipeline).to_transform_graph())
        )
        plan_b = compiler.compile(
            OvenOptimizer().optimize(flour_from_pipeline(sa_pipeline_variant).to_transform_graph())
        )
        shared = set(id(s.physical) for s in plan_a.stages) & set(
            id(s.physical) for s in plan_b.stages
        )
        # The featurization stages are identical (same dictionaries) and must
        # be the same physical objects; the scoring stages differ.
        assert len(shared) >= 2

    def test_object_store_disabled_no_sharing(self, sa_pipeline, sa_pipeline_variant):
        config = PretzelConfig(enable_object_store=False)
        compiler = ModelPlanCompiler(config=config, object_store=ObjectStore(enabled=False))
        plan_a = compiler.compile(
            OvenOptimizer().optimize(flour_from_pipeline(sa_pipeline).to_transform_graph())
        )
        plan_b = compiler.compile(
            OvenOptimizer().optimize(flour_from_pipeline(sa_pipeline_variant).to_transform_graph())
        )
        shared = set(id(s.physical) for s in plan_a.stages) & set(
            id(s.physical) for s in plan_b.stages
        )
        assert not shared

    def test_plan_metadata(self, sa_pipeline):
        plan = ModelPlanCompiler().compile(
            OvenOptimizer().optimize(flour_from_pipeline(sa_pipeline).to_transform_graph())
        )
        assert plan.input_kind == ValueKind.TEXT
        assert max(stage.physical.max_vector_size for stage in plan.stages) > 0
        assert plan.stage_count() == len(plan.stages)
        assert plan.sink_stage().is_sink


def test_registration_signs_each_operator_occurrence_a_fixed_number_of_times(monkeypatch):
    """Registering an AC plan computes each operator signature a bounded number of times.

    Once while planning (cached on the node), once at the Object Store intern,
    and once for the interned operator's physical stage.  The optimizer's
    all-pairs duplicate-stage check must not multiply this.
    """
    from repro.core import PretzelRuntime
    from repro.operators.base import Operator
    from repro.workloads import build_attendee_family

    family = build_attendee_family(
        n_pipelines=1,
        n_pca_versions=1,
        n_kmeans_versions=1,
        n_tree_featurizer_versions=1,
        n_configurations=1,
        seed=41,
    )
    generated = family.pipelines[0]
    calls = []
    signature = Operator.signature
    monkeypatch.setattr(Operator, "signature", lambda self: calls.append(1) or signature(self))
    with PretzelRuntime(PretzelConfig(enable_profiling=False)) as runtime:
        plan_id = runtime.register(generated.pipeline, stats=generated.stats)
        signed = len(calls)
        occurrences = sum(len(stage.physical.operators) for stage in runtime.plan(plan_id).stages)
    assert occurrences >= 8
    assert signed <= 3 * occurrences


def test_node_signature_cache_follows_the_operator_and_holds_no_reference():
    """The cached signature is dropped on reassignment and never pins the old operator."""
    import gc
    import weakref

    from repro.operators.linear import LinearRegressor

    private = LinearRegressor(weights=np.array([1.0]), bias=0.0)
    canonical = LinearRegressor(weights=np.array([2.0]), bias=0.0)
    node = TransformNode(private, [SOURCE])
    assert node.signature() == private.signature()
    released = weakref.ref(private)
    node.operator = canonical
    del private
    gc.collect()
    assert released() is None
    assert node.signature() == canonical.signature()
