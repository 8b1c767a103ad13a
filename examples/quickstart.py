"""Quickstart: train a sentiment-analysis pipeline and serve it with PRETZEL.

Run with:  python examples/quickstart.py
"""

from repro.core import (
    FlourContext,
    FlourProgram,
    PretzelConfig,
    PretzelRuntime,
    flour_from_pipeline,
)
from repro.mlnet import Pipeline
from repro.operators import (
    CharNgramFeaturizer,
    ConcatFeaturizer,
    LogisticRegressionClassifier,
    Tokenizer,
    WordNgramFeaturizer,
)
from repro.workloads.text_data import generate_reviews


def train_pipeline() -> Pipeline:
    """Author and train the Figure 1 pipeline with the ML.Net-style API."""
    corpus = generate_reviews(n_reviews=400, vocabulary_size=1500, seed=7)
    pipeline = Pipeline("sentiment-quickstart")
    pipeline.add("tokenizer", Tokenizer(), ["input"])
    pipeline.add("char_ngram", CharNgramFeaturizer(ngram_range=(2, 3), max_features=2000), ["tokenizer"])
    pipeline.add("word_ngram", WordNgramFeaturizer(ngram_range=(1, 2), max_features=3000), ["tokenizer"])
    pipeline.add("concat", ConcatFeaturizer(), ["char_ngram", "word_ngram"])
    pipeline.add("classifier", LogisticRegressionClassifier(epochs=10), ["concat"])
    pipeline.fit(corpus.texts, corpus.labels)
    return pipeline


def fluent_program(pipeline: Pipeline) -> FlourProgram:
    """The same program written with Flour's fluent API (paper Section 4.1).

    It chains the trained operators of ``pipeline`` behind a CSV source whose
    records carry one ``text`` field.
    """
    trained = {name: pipeline.nodes[name].operator for name in pipeline.topological_order()}
    tokens = (
        FlourContext(name="sentiment-fluent")
        .csv.from_text(",")
        .with_schema(["text"])
        .select("text")
        .tokenize(trained["tokenizer"])
    )
    features = tokens.char_ngram(trained["char_ngram"]).concat(
        tokens.word_ngram(trained["word_ngram"])
    )
    return features.classifier_binary_linear(trained["classifier"])


def main() -> None:
    pipeline = train_pipeline()

    # Off-line phase: extract a Flour program and let Oven compile a model plan.
    program = flour_from_pipeline(pipeline)
    plan = program.plan()
    print("Optimized model plan:")
    for stage in plan.stages:
        print(f"  stage {stage.stage_id}: {' -> '.join(stage.physical.transform_names)}")

    # On-line phase: register the pipeline with the runtime and serve requests.
    runtime = PretzelRuntime(PretzelConfig())
    plan_id = runtime.register(pipeline)
    texts = (
        "this is a great product, works perfectly and i love it",
        "terrible quality, broke after one day, asking for a refund",
    )
    for text in texts:
        score, latency = runtime.timed_predict(plan_id, text)
        sentiment = "positive" if score >= 0.5 else "negative"
        print(f"  {sentiment:8s} p={score:.3f}  ({latency * 1e3:.2f} ms)   {text[:48]}...")

    # The hand-written Flour program serves the same scores from CSV records.
    fluent_id = runtime.register(fluent_program(pipeline))
    fluent = [runtime.predict(fluent_id, {"text": text}) for text in texts]
    assert fluent == [runtime.predict(plan_id, text) for text in texts], fluent
    print(f"Fluent Flour program: {len(texts)} scores equal to the extracted plan's")

    print("Runtime stats:", runtime.stats()["plans"], "plan(s),",
          runtime.stats()["unique_stages"], "physical stage(s)")
    runtime.shutdown()


if __name__ == "__main__":
    main()
