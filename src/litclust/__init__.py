"""litclust: cluster labeled document corpora and score cluster informativeness.

Pipeline: corpus -> sparse tf-idf matrix (with singleton ablation, a
document-frequency floor D, and a per-document rank cutoff R) ->
truncated-SVD embedding (N dimensions) -> k-means (K clusters), scored
against gold-standard labels with homogeneity, completeness, and
v-measure.  A parameter sweep explores the (D, R, N, K) grid, and an
entity dictionary probes clusters for characteristic genes/descriptions,
exported as association networks.
"""

__version__ = "0.1.0"

import importlib

# The module that defines each public name.  ``import litclust`` imports
# none of them: a name's module is imported at its first lookup
# (PEP 562), so a caller loads only the modules it uses, and numpy,
# scipy and urllib with them.
_HOMES = {
    name: module
    for module, names in {
        "cluster": ("Clustering", "KMeans", "kmeans", "variability"),
        "corpus": ("Corpus", "Document", "TokenStream", "load_corpus", "tokenize"),
        "evaluate": ("ContingencyTable", "MetricsReport", "contingency", "metrics", "score_clustering"),
        "lsa": ("EmbeddingMatrix", "TruncatedLsa"),
        "ncbi": ("NcbiClient",),
        "probe": ("GeneDictionary", "Network", "ProbeReport", "build_network", "count_occurrences",
                  "export_network", "load_dictionary", "relative_weights"),
        "sweep": ("SweepSpec", "enumerate_grid", "render_report", "run_sweep", "v_curve"),
        "vectorize": ("CorpusVectorizer", "TermDocMatrix", "WeightedMatrix", "ablate_singletons",
                      "apply_df_threshold", "apply_rank_cutoff", "build_weighted_matrix", "count_matrix", "tfidf"),
    }.items()
    for name in names
}


def __getattr__(name: str):
    module = _HOMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Looked up in the home module every time, never stored here: a
    # stored name would keep whatever that module held at the first
    # lookup.  The benchmark's tracer (benchmarks/spans.py) swaps a
    # module's functions for wrappers and back; a lookup made while they
    # are swapped in would keep serving the wrapper afterwards.
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__all__ = ["__version__", *sorted(_HOMES)]
