"""Character n-gram cosine similarity and company matching.

The paper compares CN/SAN entries against public company-name datasets
using word vectors and a 0.9 cosine threshold (§6.1.1). We reproduce the
thresholding logic with character trigram vectors, which behave well on
the short, casing-noisy strings found in certificates.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable


def ngram_vector(text: str, n: int = 3) -> Counter:
    """Counter of padded character n-grams of the lowercased text."""
    normalized = " " + " ".join(text.lower().split()) + " "
    if len(normalized) < n:
        return Counter({normalized: 1})
    return Counter(normalized[i : i + n] for i in range(len(normalized) - n + 1))


def cosine_similarity(a: Counter, b: Counter) -> float:
    """Cosine similarity of two sparse count vectors."""
    if not a or not b:
        return 0.0
    # Iterate over the smaller vector for the dot product.
    if len(a) > len(b):
        a, b = b, a
    dot = sum(count * b.get(gram, 0) for gram, count in a.items())
    norm_a = math.sqrt(sum(count * count for count in a.values()))
    norm_b = math.sqrt(sum(count * count for count in b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def _norm(vector: Counter) -> float:
    return math.sqrt(sum(count * count for count in vector.values()))


class CompanyMatcher:
    """Matches free text against a company-name lexicon.

    `match` returns the best (name, score) pair; `is_company` applies the
    paper's 0.9 threshold. Each lexicon entry's vector norm is computed
    once, and every score equals ``cosine_similarity`` bit for bit.
    """

    def __init__(self, companies: Iterable[str], threshold: float = 0.9) -> None:
        self.threshold = threshold
        self._vectors: dict[str, Counter] = {
            name: ngram_vector(name) for name in companies
        }
        self._norms = {name: _norm(vector) for name, vector in self._vectors.items()}
        self._exact = {name.lower(): name for name in self._vectors}

    def __len__(self) -> int:
        return len(self._vectors)

    def match(self, text: str) -> tuple[str, float] | None:
        """Best-matching company and its similarity, or None if empty."""
        normalized = " ".join(text.lower().split())
        if normalized in self._exact:
            return self._exact[normalized], 1.0
        if not self._vectors:
            return None
        query = ngram_vector(text)
        query_norm = _norm(query)
        best_name, best_score = "", -1.0
        for name, vector in self._vectors.items():
            norm = self._norms[name]
            if query_norm == 0.0 or norm == 0.0:
                score = 0.0
            else:
                # Integer counts: the dot product is exact in any order,
                # and the product of the norms commutes, so the score is
                # cosine_similarity's to the last bit.
                small, large = (query, vector) if len(query) <= len(vector) else (vector, query)
                dot = sum(count * large.get(gram, 0) for gram, count in small.items())
                score = dot / (query_norm * norm)
            if score > best_score:
                best_name, best_score = name, score
        return best_name, best_score

    def is_company(self, text: str) -> bool:
        result = self.match(text)
        return result is not None and result[1] >= self.threshold
