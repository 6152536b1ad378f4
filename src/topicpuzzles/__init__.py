"""Word puzzle generation from topic dictionaries and semantic relatedness.

Pipeline: ingest a corpus into a document-term matrix, fit a topic
dictionary (LSA, LDA, or online dictionary learning), keep each topic's top
words, score those sets by bottleneck relatedness on an ESA similarity
graph, and mix the consistent ones into odd-one-out, choose-the-related-word,
and separate-the-topics puzzles with parameterizable difficulty.
"""

from .consistency import (
    ConsistentSet,
    SpanningTree,
    WeightedGraph,
    bottleneck_score,
    identify_consistent_sets,
    max_spanning_tree,
)
from .corpus import (
    DocTermMatrix,
    Document,
    TokenizerConfig,
    Vocabulary,
    build_doc_term_matrix,
    build_vocabulary,
    tfidf_transform,
    tokenize,
)
from .esa import EsaConfig, EsaIndex, SimilarityProvider, build_esa_index
from .puzzles import (
    BAND_PRESETS,
    DifficultyBand,
    Exhausted,
    Puzzle,
    Rejected,
    gen_choose_related,
    gen_odd_one_out,
    gen_separate_topics,
    generate_puzzle_bank,
    shuffle_and_render,
    verify_puzzle,
)
from .topic_models import (
    DictLearnConfig,
    LdaConfig,
    SparseCode,
    TopicDictionary,
    TopicWordSet,
    dict_learn_fit,
    dictionary_objective,
    extract_top_k,
    lda_fit,
    lsa_fit,
    sparse_code,
)

__version__ = "0.1.0"
