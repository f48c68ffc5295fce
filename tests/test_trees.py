"""Dependency trees, derivation trees, and the three file formats."""

import ast
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from d2cc import (
    AutoParseError,
    Binary,
    CategoryParseError,
    ConlluError,
    DepTree,
    RuleKind,
    Terminal,
    Unary,
    default_grammar,
    extract_headfirst,
    iter_conllu,
    parse_category,
    read_auto,
    read_conllu,
    validate_tree,
    write_auto,
    write_conllu,
)
from d2cc.trees import iter_conllu_starts, span, terminals

import d2cc.categories
import d2cc.trees

C = parse_category
FIXTURES = Path(__file__).parent / "fixtures"
MINI = Path(__file__).parent.parent / "src" / "d2cc" / "data" / "mini"


def small_tree():
    # "the cat sleeps": [S[dcl] [NP the cat] sleeps]
    the = Terminal(1, "the", C("NP/N"), "DET")
    cat = Terminal(2, "cat", C("N"), "NOUN")
    sleeps = Terminal(3, "sleeps", C("S[dcl]\\NP"), "VERB")
    np = Binary(the, cat, C("NP"), RuleKind.FORWARD_APPLY)
    return Binary(np, sleeps, C("S[dcl]"), RuleKind.BACKWARD_APPLY)


class TestDepTree:
    def test_validate_accepts_tree(self):
        DepTree(["a", "b"], ["X", "Y"], [2, 0], ["dep", "root"]).validate()

    def test_empty_rejected(self):
        with pytest.raises(ConlluError, match="empty"):
            DepTree([], [], [], []).validate()

    def test_column_lengths(self):
        with pytest.raises(ConlluError, match="column lengths"):
            DepTree(["a"], ["X"], [0], []).validate()

    def test_single_root_required(self):
        with pytest.raises(ConlluError, match="exactly one root"):
            DepTree(["a", "b"], ["X", "X"], [0, 0], ["r", "r"]).validate()

    def test_head_out_of_range(self):
        with pytest.raises(ConlluError, match="out of range"):
            DepTree(["a", "b"], ["X", "X"], [0, 9], ["r", "d"]).validate()

    def test_self_head(self):
        with pytest.raises(ConlluError, match="heads itself"):
            DepTree(["a", "b"], ["X", "X"], [0, 2], ["r", "d"]).validate()

    def test_cycle_detected(self):
        with pytest.raises(ConlluError, match="cycle"):
            DepTree(["a", "b", "c"], ["X"] * 3, [0, 3, 2],
                    ["r", "d", "d"]).validate()

    def test_ordinal_in_message(self):
        with pytest.raises(ConlluError, match="sentence 7"):
            DepTree([], [], [], []).validate(7)


class TestConllu:
    def test_round_trip(self):
        trees = [DepTree(["the", "cat", "sleeps", "."],
                         ["DET", "NOUN", "VERB", "PUNCT"],
                         [2, 3, 0, 3],
                         ["det", "nsubj", "root", "punct"])]
        text = write_conllu(trees)
        assert read_conllu(text) == trees

    def test_read_skips_comments_and_ranges(self):
        text = (
            "# sent_id = 1\n"
            "1-2\tdella\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "1\tdi\t_\tADP\t_\t_\t2\tcase\t_\t_\n"
            "2\tla\t_\tDET\t_\t_\t0\troot\t_\t_\n"
            "2.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "\n")
        trees = read_conllu(text)
        assert len(trees) == 1
        assert trees[0].tokens == ["di", "la"]
        assert trees[0].heads == [2, 0]

    def test_no_trailing_blank_line_needed(self):
        text = "1\ta\t_\tX\t_\t_\t0\troot\t_\t_"
        assert len(read_conllu(text)) == 1

    def test_bad_column_count(self):
        with pytest.raises(ConlluError, match="line 1"):
            read_conllu("1\ta\tX\n")

    def test_bad_token_id(self):
        with pytest.raises(ConlluError, match="bad token id"):
            read_conllu("x\ta\t_\tX\t_\t_\t0\troot\t_\t_\n")

    def test_out_of_order_id(self):
        with pytest.raises(ConlluError, match="out of order"):
            read_conllu("2\ta\t_\tX\t_\t_\t0\troot\t_\t_\n")

    def test_bad_head(self):
        with pytest.raises(ConlluError, match="bad head"):
            read_conllu("1\ta\t_\tX\t_\t_\tz\troot\t_\t_\n")

    def test_validation_applies_per_sentence(self):
        text = ("1\ta\t_\tX\t_\t_\t0\troot\t_\t_\n\n"
                "1\tb\t_\tX\t_\t_\t0\troot\t_\t_\n"
                "2\tc\t_\tX\t_\t_\t0\troot\t_\t_\n\n")
        with pytest.raises(ConlluError, match="sentence 2"):
            read_conllu(text)

    def test_empty_input(self):
        assert read_conllu("") == []
        assert write_conllu([]) == ""


# every line break of str.splitlines
LINE_BREAKS = ["\r\n", "\r", "\n", "\v", "\f", "\x1c", "\x1d", "\x1e",
               "\x85", "\u2028", "\u2029"]

CONLLU_TEXT = (
    "# sent_id = 1\n"
    "1-2\tdella\t_\t_\t_\t_\t_\t_\t_\t_\n"
    "1\tdi\t_\tADP\t_\t_\t2\tcase\t_\t_\n"
    "2\tla\t_\tDET\t_\t_\t0\troot\t_\t_\n"
    "2.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_\n"
    "\n"
    "\n"
    "1\tcasa\t_\tNOUN\t_\t_\t0\troot\t_\t_")


class TestLazyConllu:
    """``iter_conllu`` reads what ``str.splitlines`` splits, one sentence
    at a time."""

    def test_lines_match_splitlines(self):
        rng = random.Random(3)
        alphabet = ["a", "\t", " "] + LINE_BREAKS
        for _ in range(2000):
            text = "".join(rng.choice(alphabet)
                           for _ in range(rng.randrange(12)))
            lines = [m.group(1) for m in d2cc.trees._LINE.finditer(text)]
            assert lines == text.splitlines() + [""]

    @pytest.mark.parametrize("brk", LINE_BREAKS, ids=repr)
    def test_every_line_break(self, brk):
        text = CONLLU_TEXT.replace("\n", brk)
        trees = list(iter_conllu(text))
        assert trees == read_conllu(CONLLU_TEXT)
        assert [z.tokens for z in trees] == [["di", "la"], ["casa"]]

    @pytest.mark.parametrize("brk", LINE_BREAKS, ids=repr)
    def test_errors_keep_their_line_number(self, brk):
        bad = CONLLU_TEXT.replace("\t0\troot", "\tz\troot", 1)
        with pytest.raises(ConlluError, match="line 4: bad head"):
            read_conllu(bad.replace("\n", brk))
        last = CONLLU_TEXT + "\n" + "3\tx\t_\tX\t_\t_\t0\tdep\t_\t_"
        with pytest.raises(ConlluError, match="line 9: token id 3"):
            read_conllu(last.replace("\n", brk))

    def test_breaks_inside_a_row_split_it(self):
        # str.splitlines ends a line at a form feed, so the row breaks in two
        text = "1\ta\x0cb\t_\tX\t_\t_\t0\troot\t_\t_\n"
        with pytest.raises(ConlluError, match="line 1: expected at least 8"):
            read_conllu(text)

    def test_sentences_come_one_at_a_time(self):
        text = CONLLU_TEXT + "\n\n1\tb\t_\tX\t_\t_\t1\troot\t_\t_\n"
        sentences = iter_conllu(text)
        assert next(sentences).tokens == ["di", "la"]
        assert next(sentences).tokens == ["casa"]
        with pytest.raises(ConlluError, match="sentence 3: expected exactly one root"):
            next(sentences)

    def test_pos_and_labels_are_interned(self):
        first, second = read_conllu(
            "1\ta\t_\tNOUN\t_\t_\t0\troot\t_\t_\n\n"
            "1\tb\t_\tNOUN\t_\t_\t0\troot\t_\t_\n")
        assert first.pos[0] is second.pos[0] is sys.intern("NOUN")
        assert first.labels[0] is second.labels[0] is sys.intern("root")

    def test_empty_and_blank(self):
        assert list(iter_conllu("")) == []
        assert list(iter_conllu("\n \r\n\t\n")) == []

    @pytest.mark.parametrize("brk", LINE_BREAKS, ids=repr)
    def test_each_start_reads_its_sentence_alone(self, brk):
        # comments, multiword and empty-node rows around a start are read
        # by one slice or the other and skipped in both
        text = (CONLLU_TEXT + "\n\n# sent_id = 3\n"
                + CONLLU_TEXT.split("\n\n")[0]).replace("\n", brk)
        found = list(iter_conllu_starts(text))
        assert [z for _, z in found] == read_conllu(text)
        bounds = [start for start, _ in found] + [len(text)]
        for (start, z), end in zip(found, bounds[1:]):
            assert text[start:].startswith("1\t")
            assert read_conllu(text[start:end]) == [z]


class TestHeadFirst:
    def test_leftmost_heads(self):
        t = small_tree()
        assert span(t) == (1, 3)
        assert [x.word for x in terminals(t)] == ["the", "cat", "sleeps"]

    def test_extract(self):
        assert extract_headfirst(small_tree()) == [0, 1, 1]

    def test_unary_transparent(self):
        # "dogs sleep": N promoted to NP, then combined
        dogs = Terminal(1, "dogs", C("N"), "NOUN")
        np = Unary(dogs, C("NP"), RuleKind.UNARY_TYPE_CHANGE)
        sleep = Terminal(2, "sleep", C("S[dcl]\\NP"), "VERB")
        root = Binary(np, sleep, C("S[dcl]"), RuleKind.BACKWARD_APPLY)
        assert extract_headfirst(root) == [0, 1]

    def test_every_arc_left_to_right(self):
        gold = read_auto((MINI / "mini.auto").read_text(encoding="utf-8"))
        for tree in gold:
            heads = extract_headfirst(tree)
            for token, head in enumerate(heads, 1):
                assert head < token  # parent strictly to the left (0 = root)

    def test_single_terminal(self):
        t = Terminal(1, "hi", C("NP"), "X")
        assert extract_headfirst(t) == [0]


class TestValidateTree:
    def test_valid(self):
        assert validate_tree(small_tree(), default_grammar()) == []

    def test_unlicensed_binary(self):
        bad = Binary(Terminal(1, "a", C("NP"), "X"),
                     Terminal(2, "b", C("NP"), "X"),
                     C("NP"), RuleKind.FORWARD_APPLY)
        problems = validate_tree(bad, default_grammar())
        assert any("not licensed" in p for p in problems)

    def test_wrong_rule_kind(self):
        t = small_tree()
        twisted = Binary(t.left, t.right, t.category, RuleKind.FORWARD_APPLY)
        problems = validate_tree(twisted, default_grammar())
        assert any("not licensed" in p for p in problems)

    def test_missing_rule(self):
        t = small_tree()
        bare = Binary(t.left, t.right, t.category, None)
        problems = validate_tree(bare, default_grammar())
        assert any("carries no rule" in p for p in problems)

    def test_bad_root_category(self):
        # N is not in the root set
        lone = Terminal(1, "cat", C("N"), "NOUN")
        problems = validate_tree(lone, default_grammar())
        assert any("root category" in p for p in problems)

    def test_gap_in_indices(self):
        a = Terminal(1, "a", C("NP/N"), "X")
        b = Terminal(3, "b", C("N"), "X")
        bad = Binary(a, b, C("NP"), RuleKind.FORWARD_APPLY)
        problems = validate_tree(bad, default_grammar())
        assert any("not contiguous" in p for p in problems)

    def test_unlicensed_unary(self):
        u = Unary(Terminal(1, "a", C("NP"), "X"), C("N"),
                  RuleKind.UNARY_TYPE_CHANGE)
        problems = validate_tree(u, default_grammar())
        assert any("unary" in p for p in problems)

    def test_problem_text(self):
        a = Terminal(2, "a", C("NP"), "X")
        b = Terminal(3, "b", C("S[dcl]\\NP"), "X")
        nodes = [Binary(a, b, C("NP"), RuleKind.BACKWARD_APPLY),
                 Binary(a, b, C("S[dcl]"), None),
                 Unary(a, C("N"), RuleKind.UNARY_TYPE_CHANGE),
                 Unary(a, C("N"), None)]
        problems = [validate_tree(node, default_grammar()) for node in nodes]
        assert problems == [
            ["span (2, 3): NP + S[dcl]\\NP => NP not licensed"],
            ["span (2, 3): binary node S[dcl] carries no rule"],
            ["span (2, 2): unary NP => N not licensed",
             "root category N not in root set"],
            ["span (2, 2): unary node N carries no rule",
             "root category N not in root set"],
        ]


class TestAuto:
    def test_round_trip_constructed(self):
        trees = [small_tree()]
        text = write_auto(trees)
        assert read_auto(text) == trees
        assert write_auto(read_auto(text)) == text

    def test_round_trip_shipped_treebank(self):
        text = (MINI / "mini.auto").read_text(encoding="utf-8")
        assert write_auto(read_auto(text)) == text

    def test_round_trip_fixtures(self):
        for name in ["relclause.auto", "coord.auto"]:
            text = (FIXTURES / name).read_text(encoding="utf-8")
            assert write_auto(read_auto(text)) == text

    @pytest.mark.parametrize("shape", ["left", "right"])
    def test_round_trip_deep_chain(self, shape):
        # 40,000 leaves branching one way, a unary node every 1,000 levels;
        # the text is built without nesting strings, in linear time
        n = 40000
        opens, closes = [], []
        for k in range(n, 1, -1):
            cat = "S[dcl]" if k % 2 else "NP"
            word = "(<L %s\\%s X X w%d %s\\%s>)" % (cat, cat, k, cat, cat)
            if k % 1000 == 0:
                opens.append("(<T %s 0 1> " % cat)
                closes.append(")")
            opens.append("(<T %s 0 2> " % cat)
            closes.append(" %s)" % word if shape == "left" else ")")
            if shape == "right":
                opens.append(word + " ")
        text = "ID=1\n%s(<L NP X X w1 NP>)%s\n" % ("".join(opens),
                                                   "".join(reversed(closes)))
        [tree] = read_auto(text)
        assert len(terminals(tree)) == n
        assert write_auto([tree]) == text

    def test_leaf_fields(self):
        line = "ID=1\n(<L NP NNP NNP Smith NP>)\n"
        [tree] = read_auto(line)
        assert tree == Terminal(1, "Smith", C("NP"), "NNP")

    def test_rule_inference(self):
        [tree] = read_auto(write_auto([small_tree()]))
        assert tree.rule is RuleKind.BACKWARD_APPLY
        assert tree.left.rule is RuleKind.FORWARD_APPLY

    def test_unlicensed_node_gets_none(self):
        text = "(<T NP 0 2> (<L NP X X a NP>) (<L NP X X b NP>))\n"
        [tree] = read_auto(text)
        assert tree.rule is None

    def test_errors(self):
        for bad in [
                "(<L NP X X a>)",            # five leaf fields
                "(<T NP 0 3> (<L NP X X a NP>))",   # bad daughter count
                "(<T NP 0 one> (<L NP X X a NP>))",  # non-numeric count
                "(<X NP>)",                  # unknown kind
                "(<T NP 0 1> (<L NP X X a NP>)",  # missing close paren
                "no bracket",
        ]:
            with pytest.raises(AutoParseError):
                read_auto(bad)

    def test_trailing_text(self):
        with pytest.raises(AutoParseError, match="trailing"):
            read_auto("(<L NP X X a NP>) junk\n")

    def test_each_category_text_parsed_once(self, monkeypatch):
        text = (MINI / "mini.auto").read_text(encoding="utf-8")
        calls = []
        tokenize = d2cc.categories._tokenize

        def counting(category_text):
            calls.append(category_text)
            return tokenize(category_text)

        monkeypatch.setattr(d2cc.categories, "_PARSED", {})
        monkeypatch.setattr(d2cc.categories, "_tokenize", counting)
        trees = read_auto(text)
        distinct = set(re.findall(r"\(<[LT] (\S+)", text))
        assert len(calls) == len(distinct) < len(trees)
        assert set(calls) == distinct
        assert write_auto(trees) == text
        # the memo outlives the call
        assert read_auto(text) == trees
        assert len(calls) == len(distinct)

    def test_bad_category_message(self):
        with pytest.raises(CategoryParseError) as expected:
            parse_category("NP/")
        line = "(<T NP 0 1> (<L NP/ X X a NP/>))\n"
        with pytest.raises(CategoryParseError) as raised:
            read_auto(line)
        assert str(raised.value) == str(expected.value)

    def test_empty(self):
        assert read_auto("") == []
        assert write_auto([]) == ""


class TestNodeEquality:
    def test_kind_and_every_field_decide_equality(self):
        leaf = Terminal(1, "a", C("NP"))
        assert leaf == Terminal(1, "a", C("NP"), "XX")
        assert leaf != Terminal(2, "a", C("NP"))
        assert leaf != Terminal(1, "a", C("NP"), "NN")
        unary = Unary(leaf, C("S/(S\\NP)"), RuleKind.TYPE_RAISE)
        assert unary != Unary(leaf, C("S/(S\\NP)"), None)
        assert unary != leaf and leaf != unary and leaf != "a"
        assert repr(unary) == (
            "Unary(child=Terminal(index=1, word='a', category="
            "parse_category('NP'), pos='XX'), category="
            "parse_category('S/(S\\\\NP)'), rule=%r)" % RuleKind.TYPE_RAISE)


def test_read_auto_accepts_ccgbank_spacing():
    """CCGbank's own AUTO files put a space before each internal node's
    closing bracket and after the last one."""
    text = ("ID=wsj_0001.1 PARSER=GOLD NUMPARSE=1\n"
            "(<T S[dcl] 0 2> (<T NP 0 2> (<L NP/N DET DET the NP/N>) "
            "(<L N NOUN NOUN cat N>) ) "
            "(<L S[dcl]\\NP VERB VERB sleeps S[dcl]\\NP>) ) \n")
    assert read_auto(text) == [small_tree()]


# The functions that may call themselves: the category walkers, which
# recurse once per level of a category's nesting, and the search, whose
# failure diagnosis runs it once more.  A derivation walker uses
# ``postorder`` or ``fold``, or keeps an explicit stack of its own.
RECURSIVE = {
    "categories.strip_features", "categories._parse_cat",
    "categories._parse_part", "categories._fill",
    "categories._collect_pairs", "pas._fresh_terms", "pas._atom_vars",
    "pas._link_pairwise", "pas._coindex_modifiers", "decoder.astar_parse",
}


def _references(node, scope, visible, graph):
    """Add to ``graph[scope]`` each function of the module that the code
    under ``node`` names: a bare name resolves to a function nested in an
    enclosing function or defined at module level, ``self.x`` or ``cls.x``
    to a method of the enclosing class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = "%s.%s" % (scope, child.name)
            inner = dict(visible)
            inner.update({d.name: "%s.%s" % (name, d.name) for d in child.body
                          if isinstance(d, ast.FunctionDef)})
            graph.setdefault(name, set())
            _references(child, name, inner, graph)
            continue
        if isinstance(child, ast.Name) and child.id in visible:
            graph.setdefault(scope, set()).add(visible[child.id])
        elif (isinstance(child, ast.Attribute)
              and isinstance(child.value, ast.Name)
              and child.value.id in ("self", "cls")):
            graph.setdefault(scope, set()).add(
                "%s.%s" % (scope.rsplit(".", 1)[0], child.attr))
        _references(child, scope, visible, graph)


def _recursive_functions(path):
    """The functions of the module at ``path`` that can call themselves,
    directly or through other functions of the module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    graph = {}
    _references(tree, path.stem, {
        d.name: "%s.%s" % (path.stem, d.name) for d in tree.body
        if isinstance(d, ast.FunctionDef)}, graph)
    found = set()
    for start, callees in graph.items():
        seen, todo = set(), list(callees)
        while todo and start not in seen:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(graph.get(name, ()))
        if start in seen:
            found.add(start)
    return found


def test_no_derivation_walker_recurses():
    found = set()
    for path in sorted(Path(d2cc.trees.__file__).parent.rglob("*.py")):
        found |= _recursive_functions(path)
    assert found == RECURSIVE


class TestMiniTreebankTool:
    def test_rebuilds_the_shipped_files(self, tmp_path):
        tool = Path(__file__).parent.parent / "tools" / "make_mini_treebank.py"
        done = subprocess.run([sys.executable, str(tool), str(tmp_path)],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        for name in ("mini.conllu", "mini.auto"):
            assert (tmp_path / name).read_bytes() == (MINI / name).read_bytes()
