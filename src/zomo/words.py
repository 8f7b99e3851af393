"""Group presentations and the small relator language used by the catalog.

A presentation is written ``<g1, g2, ... | rel1, rel2, ...>``.  Relators are
words in the generators built from ``*`` (concatenation), ``^k`` (integer
powers, negative allowed), ``[u, v]`` (commutator u^-1 v^-1 u v), ``u^v``
(conjugation v^-1 u v) and ``u = v`` chains, which are stored as u * v^-1.
``#`` starts a line comment.  Whitespace is insignificant.
"""

import re
from dataclasses import dataclass

from . import ZomoError


class ParseError(ZomoError, ValueError):
    pass


# A word is a tuple of (generator_index, exponent) pairs, normalized so that
# adjacent pairs have distinct generators and no exponent is zero.
Word = tuple


def normalize_word(pairs):
    out = []
    for g, e in pairs:
        if e == 0:
            continue
        if out and out[-1][0] == g:
            e2 = out[-1][1] + e
            out.pop()
            if e2 != 0:
                out.append((g, e2))
        else:
            out.append((g, e))
    return tuple(out)


def invert_word(w):
    return normalize_word([(g, -e) for g, e in reversed(w)])


def concat_words(*ws):
    pairs = []
    for w in ws:
        pairs.extend(w)
    return normalize_word(pairs)


def power_word(w, k):
    if k == 0:
        return ()
    if k < 0:
        return power_word(invert_word(w), -k)
    return concat_words(*([w] * k))


def commutator_word(u, v):
    return concat_words(invert_word(u), invert_word(v), u, v)


def conjugate_word(u, v):
    return concat_words(invert_word(v), u, v)


@dataclass(frozen=True)
class Presentation:
    """Generators and relators, stored freely reduced and nonempty."""
    generators: tuple
    relators: tuple

    def __post_init__(self):
        n = len(self.generators)
        for rel in self.relators:
            for g, _ in rel:
                if not 0 <= g < n:
                    raise ParseError("relator references unknown generator index %d" % g)
        object.__setattr__(self, "relators", tuple(
            filter(None, map(normalize_word, self.relators))))


_TOKEN_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|-?\d+|[<>|,*^\[\]=()])")


def _tokenize(text):
    # strip line comments first
    text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError("unexpected character %r" % rest[0])
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, gen_index):
        self.tokens = tokens
        self.pos = 0
        self.gen_index = gen_index

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expect=None):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        if expect is not None and tok != expect:
            raise ParseError("expected %r, found %r" % (expect, tok))
        self.pos += 1
        return tok

    def parse_relator_group(self):
        """Parse expr (= expr)* and return the list of resulting relators."""
        words = [self.parse_expr()]
        while self.peek() == "=":
            self.take("=")
            words.append(self.parse_expr())
        if len(words) == 1:
            return [words[0]]
        return [concat_words(words[i], invert_word(words[i + 1]))
                for i in range(len(words) - 1)]

    def parse_expr(self):
        w = self.parse_term()
        while self.peek() == "*":
            self.take("*")
            w = concat_words(w, self.parse_term())
        return w

    def parse_term(self):
        w = self.parse_atom()
        while self.peek() == "^":
            self.take("^")
            tok = self.peek()
            if tok is not None and re.fullmatch(r"-?\d+", tok):
                self.take()
                w = power_word(w, int(tok))
            else:
                # conjugation sugar u^v = v^-1 u v
                v = self.parse_atom()
                w = conjugate_word(w, v)
        return w

    def parse_atom(self):
        tok = self.take()
        if tok == "(":
            w = self.parse_expr()
            self.take(")")
            return w
        if tok == "[":
            u = self.parse_expr()
            self.take(",")
            v = self.parse_expr()
            self.take("]")
            return commutator_word(u, v)
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            if tok not in self.gen_index:
                raise ParseError("unknown generator %r" % tok)
            return ((self.gen_index[tok], 1),)
        if re.fullmatch(r"-?\d+", tok):
            if tok == "1":
                return ()
            raise ParseError("unexpected number %r in word position" % tok)
        raise ParseError("unexpected token %r" % tok)


def parse_presentation(text):
    tokens = _tokenize(text)
    if not tokens or tokens[0] != "<":
        raise ParseError("presentation must start with '<'")
    if tokens[-1] != ">":
        raise ParseError("presentation must end with '>'")
    body = tokens[1:-1]
    try:
        bar = body.index("|")
    except ValueError:
        raise ParseError("missing '|' separator") from None
    gen_tokens = body[:bar]
    generators = []
    expect_name = True
    for tok in gen_tokens:
        if expect_name:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
                raise ParseError("bad generator name %r" % tok)
            if tok in generators:
                raise ParseError("duplicate generator %r" % tok)
            generators.append(tok)
        elif tok != ",":
            raise ParseError("expected ',' in generator list, found %r" % tok)
        expect_name = not expect_name
    if not generators or expect_name:
        raise ParseError("empty generator list")
    gen_index = {name: i for i, name in enumerate(generators)}

    relators = []
    rel_tokens = body[bar + 1:]
    if rel_tokens:
        parser = _Parser(rel_tokens, gen_index)
        while True:
            relators.extend(parser.parse_relator_group())
            if parser.peek() is None:
                break
            parser.take(",")
    return Presentation(tuple(generators), tuple(relators))


def parse_word(text, generators):
    """Parse a single word (no '<...|...>' wrapper) over the given generators."""
    gen_index = {name: i for i, name in enumerate(generators)}
    tokens = _tokenize(text)
    if not tokens:
        return ()
    parser = _Parser(tokens, gen_index)
    w = parser.parse_expr()
    if parser.peek() is not None:
        raise ParseError("trailing tokens after word: %r" % parser.peek())
    return w
