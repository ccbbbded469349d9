"""Seeded input generators for the three workloads.

Everything a run feeds the program comes from here: the corpora, the
query streams and the write schedule.  The same seed gives the same
inputs; the program under test only ever sees the generated documents
and requests, never the seed.
"""

from __future__ import annotations

import itertools
import random

#: The corpora are fixed by the workload definition, so set-up cost is
#: comparable across seeds.
CORPUS_SEED = 13
MARKER_EVERY = 25
#: Each request stream is one fixed query log, drawn once from the
#: workload's model; the run seed sets the order it is replayed in.  Every
#: run then sends the same mix and the same expensive tail, so its latency
#: percentiles differ between seeds by run-to-run noise, not by which
#: rare queries a draw happened to include.
LOG_SEED = 2001


def query_log(make, count: int, stream: str, rng: random.Random,
              *args) -> list[dict]:
    """``make(count, *args, log_rng)`` drawn from the fixed log seed,
    replayed in ``rng``'s order."""
    bodies = make(count, *args, random.Random(f"{LOG_SEED}-{stream}"))
    rng.shuffle(bodies)
    return bodies


def zipf_corpus(documents: int, vocabulary: int = 150,
                words_per_doc: int = 60) -> list[tuple[str, str]]:
    """(url, text) pairs with a Zipf term distribution plus rare markers.

    The texts are those of the pytest benchmarks' shared corpus: every
    ``MARKER_EVERY``-th document repeats the markers ``grandslam`` and
    ``finalist`` a strictly increasing number of times, so the last
    marker document is the top hit for a marker query.  Urls use the
    engine's ``class:key:attribute`` form, so fielded terms and class
    facets have something to match.
    """
    rng = random.Random(CORPUS_SEED)
    vocab = [f"term{i:03d}" for i in range(vocabulary)]
    weights = [1.0 / (i + 1) for i in range(vocabulary)]
    docs = []
    for d in range(documents):
        words = rng.choices(vocab, weights=weights, k=words_per_doc)
        if d % MARKER_EVERY == 0:
            repeat = d // MARKER_EVERY + 1
            words += ["grandslam", "finalist"] * repeat
        docs.append((doc_url(d), " ".join(words)))
    return docs


def doc_url(d: int) -> str:
    cls = "Article" if d % 3 == 0 else "Paper"
    attribute = "body" if d % 2 == 0 else "abstract"
    return f"{cls}:d{d:05d}:{attribute}"


def marker_top_url(documents: int) -> str:
    """The url a ``grandslam finalist`` query must rank first."""
    last = (documents - 1) // MARKER_EVERY * MARKER_EVERY
    return doc_url(last)


class Zipf:
    """Draws from ``items`` with weight 1/(rank+1), rank = list position."""

    def __init__(self, items: list[str], rng: random.Random):
        self.items = items
        self.cumulative = list(itertools.accumulate(
            1.0 / (rank + 1) for rank in range(len(items))))
        self.rng = rng

    def draw(self) -> str:
        return self.rng.choices(self.items, cum_weights=self.cumulative)[0]

    def distinct(self, k: int) -> list[str]:
        drawn: list[str] = []
        while len(drawn) < k:
            item = self.draw()
            if item not in drawn:
                drawn.append(item)
        return drawn


def zipf_terms(vocabulary: int, rng: random.Random) -> Zipf:
    """Query terms under the corpus's own Zipf weights."""
    return Zipf([f"term{i:03d}" for i in range(vocabulary)], rng)


def stratified(kinds: list[str], count: int,
               rng: random.Random) -> list[str]:
    """``count`` kinds in exact proportion: ``kinds`` is one block of the
    mix, repeated and shuffled within each block, so every run sends the
    same mix however short it is."""
    order: list[str] = []
    while len(order) < count:
        block = list(kinds)
        rng.shuffle(block)
        order.extend(block)
    return order[:count]


#: one block of the IR read mix: 50% content, 20% fragmented, 30% v2
#: spread over the five schema-2 shapes
IR_MIX = (["content"] * 10 + ["fragmented"] * 4
          + ["v2.bag", "v2.bag", "v2.phrase", "v2.not", "v2.boost",
             "v2.facet"])


def search_requests(count: int, vocabulary: int,
                    rng: random.Random) -> list[dict]:
    """Wire bodies for the IR read mix.

    50% v1 ``content``, 20% v1 ``fragmented``, 30% schema-2 spread over
    five shapes: a bag, a phrase, a boolean with NOT, a ``^boost`` with a
    fielded term, and a bag with one class facet.  Two to four Zipf
    terms each, so nearly every request is distinct and bypasses the
    result cache.
    """
    terms = zipf_terms(vocabulary, rng)
    bodies = []
    for kind in stratified(IR_MIX, count, rng):
        words = terms.distinct(rng.randint(2, 4))
        if kind.startswith("v2."):
            bodies.append(_v2_body(words, kind[3:]))
        else:
            bodies.append({"query": " ".join(words), "mode": kind})
    return bodies


def _v2_body(words: list[str], shape: str) -> dict:
    if shape == "phrase":
        query = f'"{words[0]} {words[1]}" ' + " ".join(words[2:])
    elif shape == "not":
        head = (f"({words[0]} OR {words[1]})" if len(words) > 2
                else words[0])
        query = f"{head} NOT {words[-1]}"
    elif shape == "boost":
        query = f"body:{words[0]}^3 " + " ".join(words[1:])
    else:
        query = " ".join(words)
    body = {"schema_version": 2, "mode": "content", "query": query.strip()}
    if shape == "facet":
        body["facets"] = ["class"]
    return body


# -- ingest_200 --------------------------------------------------------------

#: add (new url) -> update (existing url) -> add -> delete (existing url)
WRITE_CYCLE = ("add", "update", "add", "delete")


def write_schedule(corpus: list[tuple[str, str]], writes: int,
                   vocabulary: int, rng: random.Random) -> list[dict]:
    """The writer's ops, in order.

    Adds index a new url carrying a unique marker term; updates rewrite
    an original document; deletes remove a different original document.
    Updates and deletes touch disjoint originals, each at most once, so
    every op succeeds.
    """
    originals = [url for url, _ in corpus]
    rng.shuffle(originals)
    terms = zipf_terms(vocabulary, rng)
    ops = []
    for i in range(writes):
        kind = WRITE_CYCLE[i % len(WRITE_CYCLE)]
        text = " ".join(terms.distinct(40))
        if kind == "add":
            marker = f"zzmark{i:04d}q"
            ops.append({"op": "add", "url": f"Live:n{i:04d}:body",
                        "text": f"{marker} {text}", "marker": marker})
        elif kind == "update":
            ops.append({"op": "update", "url": originals.pop(), "text": text})
        else:
            ops.append({"op": "delete", "url": originals.pop()})
    return ops


def final_corpus(corpus: list[tuple[str, str]],
                 applied: list[dict]) -> list[tuple[str, str]]:
    """The corpus after ``applied`` ops, in live insertion order.

    A reindex removes the document and appends it anew, so updated and
    added documents follow the untouched originals in op order, which
    is the order a from-scratch build must use to reproduce oid order.
    """
    docs = dict(corpus)
    order = [url for url, _ in corpus]
    for op in applied:
        if op["op"] in ("add", "update"):
            if op["url"] in docs:
                order.remove(op["url"])
            docs[op["url"]] = op["text"]
            order.append(op["url"])
        else:
            del docs[op["url"]]
            order.remove(op["url"])
    return [(url, docs[url]) for url in order]


# -- library_ausopen ---------------------------------------------------------

HEADLINE = ("SELECT p.name, v.title FROM Player p, Video v "
            "WHERE p.gender = 'female' AND p.plays = 'left' "
            "AND p.history CONTAINS 'Winner' "
            "AND v Features p AND v.video EVENT netplay TOP 10")

_HISTORY_WORDS = ["winner", "celebrated", "melbourne", "trophy",
                  "championship", "baseline", "fearless", "reputation",
                  "competitors", "steady", "professional", "quarter",
                  "finals", "breakthrough", "grand slam", "tour",
                  "dominated", "tournament", "presence", "era"]
_ARTICLE_WORDS = ["encounter", "centre court", "crowd", "groundstrokes",
                  "evening session", "organisers", "quality", "finest",
                  "interview", "heat rule", "tennis", "impress", "day",
                  "powerful", "gripping"]


def library_pools(truth) -> tuple[list[str], list[str]]:
    """(conceptual queries, content queries) over one generated site.

    Built from the site's ground truth so every query is well-formed
    and answerable: attribute selects, CONTAINS rankings, association
    joins, EVENT predicates, the headline query, and content term bags.
    """
    players = truth.players
    countries = sorted({p.country for p in players})
    conceptual = [HEADLINE]
    for gender in ("female", "male"):
        conceptual.append(f"SELECT p.name FROM Player p "
                          f"WHERE p.gender = '{gender}'")
        for plays in ("left", "right"):
            conceptual.append(
                f"SELECT p.name FROM Player p WHERE p.gender = '{gender}' "
                f"AND p.plays = '{plays}'")
            conceptual.append(
                f"SELECT p.name, v.title FROM Player p, Video v "
                f"WHERE p.gender = '{gender}' AND p.plays = '{plays}' "
                f"AND v Features p AND v.video EVENT netplay TOP 10")
        for country in countries:
            conceptual.append(
                f"SELECT p.name FROM Player p WHERE p.gender = '{gender}' "
                f"AND p.country = '{country}'")
    for country in countries:
        conceptual.append(f"SELECT p.name, p.plays FROM Player p "
                          f"WHERE p.country = '{country}'")
        for plays in ("left", "right"):
            conceptual.append(
                f"SELECT p.name FROM Player p WHERE p.plays = '{plays}' "
                f"AND p.country = '{country}'")
    for word in _HISTORY_WORDS:
        conceptual.append(f"SELECT p.name FROM Player p "
                          f"WHERE p.history CONTAINS '{word}' TOP 5")
        conceptual.append(f"SELECT p.name FROM Player p "
                          f"WHERE p.plays = 'left' "
                          f"AND p.history CONTAINS '{word}' TOP 5")
    for word in _ARTICLE_WORDS:
        conceptual.append(f"SELECT a.title FROM Article a "
                          f"WHERE a.body CONTAINS '{word}' TOP 5")
    for player in players:
        conceptual.append(f"SELECT p.country, p.plays FROM Player p "
                          f"WHERE p.name = '{player.name}'")
        conceptual.append(f"SELECT a.title FROM Article a, Player p "
                          f"WHERE a About p AND p.name = '{player.name}'")
        conceptual.append(f"SELECT p.name, v.title FROM Player p, Video v "
                          f"WHERE v Features p "
                          f"AND p.name = '{player.name}'")
    conceptual.append("SELECT v.title FROM Video v "
                      "WHERE v.video EVENT netplay")
    last_names = sorted({p.name.split()[-1].lower() for p in players})
    content = []
    for word in _HISTORY_WORDS + _ARTICLE_WORDS:
        content.append(word)
    for name in last_names:
        content.append(f"{name} melbourne")
        content.append(f"{name} trophy")
        content.append(f"{name} tennis")
    for a, b in zip(_HISTORY_WORDS, reversed(_ARTICLE_WORDS)):
        content.append(f"{a} {b}")
    # player names repeat across the generated roster
    return list(dict.fromkeys(conceptual)), list(dict.fromkeys(content))


#: one block of the library mix: 70% conceptual, 30% content, and a
#: quarter of each on the process backend
LIBRARY_MIX = (["conceptual"] * 10 + ["conceptual.process"] * 4
               + ["content"] * 5 + ["content.process"] * 1)


def library_requests(count: int, truth, rng: random.Random) -> list[dict]:
    """70% conceptual, 30% content; a quarter of all on the process
    backend (exactly 5 in every 20)."""
    pools = {}
    for mode, pool in zip(("conceptual", "content"), library_pools(truth)):
        rng.shuffle(pool)   # which queries are popular
        pools[mode] = Zipf(pool, rng)
    bodies = []
    for kind in stratified(LIBRARY_MIX, count, rng):
        mode, _, backend = kind.partition(".")
        body = {"query": pools[mode].draw(), "mode": mode}
        if backend:
            body["policy"] = {"backend": backend}
        bodies.append(body)
    return bodies
