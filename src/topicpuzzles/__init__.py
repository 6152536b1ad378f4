"""Word puzzle generation from topic dictionaries and semantic relatedness.

Pipeline: ingest a corpus into a document-term matrix, fit a topic
dictionary (LSA, LDA, or online dictionary learning), keep each topic's top
words, score those sets by bottleneck relatedness on an ESA similarity
graph, and mix the consistent ones into odd-one-out, choose-the-related-word,
and separate-the-topics puzzles with parameterizable difficulty.
"""

__version__ = "0.1.0"
