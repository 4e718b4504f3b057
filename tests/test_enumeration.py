import functools
import hashlib
import math
import os
import pickle
import signal
import subprocess
import sys

import pytest

from hfspeed.canon import canonical_form, canonical_graph, group_order
from hfspeed.enumeration import (
    ENUM_MAX_N, DeltaReport, SpeedTable, enumerate_family,
    labeled_count_direct, speed_delta,
)
from hfspeed.errors import (
    CapacityError, ResourceLimitError, UnsupportedOperationError,
    ValidationError,
)
from hfspeed.families import (
    ALL, Apex, C, Forb, HST, IntersectionFam, Iota, M, PartitionProduct, S,
)
from hfspeed.graph6 import decode
from hfspeed.graphs import complete, cycle, path, relabel
from hfspeed.stars import Constellation, PJFamily
from hfspeed.structure import ReducedFamily
from oracles import brute_embeds_induced


# frozen reference sequences; the first two are classical, the others are
# standard catalogue values
ALL_UNLABELED = [1, 1, 2, 4, 11, 34, 156, 1044]
TRIANGLE_FREE = [1, 1, 2, 3, 7, 14, 38, 107, 410]
BIPARTITE = [1, 1, 2, 3, 7, 13, 35, 88, 303]
SPLIT = [1, 1, 2, 4, 9, 21, 56]
COGRAPHS = [1, 1, 2, 4, 10, 24, 66]
INVOLUTIONS = [1, 1, 2, 4, 10, 26, 76]


class TestKnownSequences:
    def test_all_graphs(self):
        t = enumerate_family(ALL, 7, keep_members=False)
        assert t.unlabeled == ALL_UNLABELED
        assert t.labeled == [2 ** math.comb(n, 2) for n in range(8)]

    def test_triangle_free(self):
        t = enumerate_family(Forb([complete(3)]), 8, keep_members=False)
        assert t.unlabeled == TRIANGLE_FREE

    def test_bipartite(self):
        t = enumerate_family(HST(2, 0), 8, keep_members=False)
        assert t.unlabeled == BIPARTITE
        assert t.labeled[4] == 41

    def test_split(self):
        t = enumerate_family(HST(1, 1), 6, keep_members=False)
        assert t.unlabeled == SPLIT

    def test_cographs(self):
        t = enumerate_family(Forb([path(4)]), 6, keep_members=False)
        assert t.unlabeled == COGRAPHS

    def test_matchings(self):
        t = enumerate_family(M, 6, keep_members=False)
        assert t.labeled == INVOLUTIONS
        assert t.unlabeled == [n // 2 + 1 for n in range(7)]

    def test_empty_tail(self):
        t = enumerate_family(Forb([complete(1)]), 3, keep_members=False)
        assert t.unlabeled == [1, 0, 0, 0]
        assert t.h_bits[1] == float("-inf")

    @pytest.mark.parametrize("pattern", [cycle(40), path(35), complete(30)],
                             ids=["C40", "P35", "K30"])
    def test_large_symmetric_pattern(self, pattern):
        # the anchored scan reduces the pattern's vertices to orbit
        # representatives; that must stay linear in the pattern's order
        t = enumerate_family(Forb([pattern]), 6, keep_members=False)
        assert t.unlabeled == ALL_UNLABELED[:7]
        assert t.labeled == [2 ** math.comb(n, 2) for n in range(7)]

    @pytest.mark.parametrize("pattern,l", [
        (cycle(40), 1), (cycle(40), 2), (cycle(40), 3), (path(35), 3),
        (complete(30), 3), (cycle(21), 3),
    ], ids=["C40-1", "C40-2", "C40-3", "P35-3", "K30-3", "C21-3"])
    def test_large_pattern_reduced(self, pattern, l):
        # red's obstruction walk only builds parts A with |A| at most the
        # graph's order, and cuts a vertex only while every cut vertex is
        # still needed; without either bound these run for minutes, so
        # the walk must finish inside 20 s (each takes under 1 s)
        def expire(signum, frame):
            raise TimeoutError("red(forb(...)) ran past 20 s")

        old = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 20)
        try:
            t = enumerate_family(ReducedFamily(Forb([pattern]), l), 6,
                                 keep_members=False)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        assert t.unlabeled == ALL_UNLABELED[:7]
        assert t.labeled == [2 ** math.comb(n, 2) for n in range(7)]


class TestTwoRoutesAgree:
    # the augmentation count and the direct 2^C(n,2) scan share only the
    # membership engine
    @pytest.mark.parametrize("fam", [
        Forb([complete(3)]), HST(2, 0), HST(1, 1), M,
        PartitionProduct([M, S]), Iota(cycle(5)),
    ], ids=lambda f: f.text())
    def test_labeled_counts(self, fam):
        t = enumerate_family(fam, 5, keep_members=False)
        for n in range(6):
            assert t.labeled[n] == labeled_count_direct(fam, n)


class TestMembers:
    def test_members_are_canonical_unique_and_correct(self):
        fam = Forb([complete(3)])
        t = enumerate_family(fam, 6)
        k3 = complete(3)
        for n in range(7):
            ms = t.members[n]
            assert len(ms) == t.unlabeled[n]
            assert len({g.rows for g in ms}) == len(ms)
            assert [g.rows for g in ms] == sorted(g.rows for g in ms)
            for g in ms:
                assert canonical_graph(g) == g
                assert not brute_embeds_induced(k3, g)

    @pytest.mark.parametrize("fam", [ALL, Forb([complete(3)]), HST(2, 0)],
                             ids=str)
    @pytest.mark.parametrize("route", ["fresh", "resumed", "two-workers"])
    def test_auts_are_the_members_aut_orders(self, fam, route, tmp_path):
        kw = {"threads": 2} if route == "two-workers" else {}
        if route == "resumed":
            kw["checkpoint_dir"] = str(tmp_path)
            enumerate_family(fam, 5, **kw)
        t = enumerate_family(fam, 7, **kw)
        assert [len(a) for a in t.auts] == t.unlabeled
        assert [len(g) for g in t.gens] == t.unlabeled
        for n in range(8):
            assert t.auts[n] == [canonical_form(g).aut_order
                                 for g in t.members[n]]
            for g, gens, aut in zip(t.members[n], t.gens[n], t.auts[n]):
                assert all(relabel(g, p) == g for p in gens)
                assert group_order(gens, n) == aut
        bare = enumerate_family(fam, 3, keep_members=False)
        assert bare.auts is None and bare.gens is None


class TestValidation:
    def test_refuses_non_hereditary(self):
        with pytest.raises(UnsupportedOperationError):
            enumerate_family(Apex(C), 4)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            enumerate_family(S, 17)
        with pytest.raises(CapacityError):
            enumerate_family(S, -1)
        with pytest.raises(CapacityError):
            labeled_count_direct(S, 8)

    def test_knobs_below_one_refused(self):
        for kw in ({"threads": 0}, {"threads": -3}, {"budget_limit": 0},
                   {"budget_limit": -1}):
            with pytest.raises(ValidationError):
                enumerate_family(S, 3, **kw)

    def test_budget_propagates(self):
        # forb(C5) lists no children, so each is decided on the budget;
        # a listed child (forb(K3)) spends none
        with pytest.raises(ResourceLimitError):
            enumerate_family(Forb([cycle(5)]), 3, budget_limit=1)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_budget_error_names_family_level_and_graph(self, threads):
        # budget 5 lasts through level 4 (n + 1 nodes per anchored check);
        # level 5 has several parents, so at two workers the error comes
        # out of a pool worker
        with pytest.raises(ResourceLimitError) as info:
            enumerate_family(Forb([cycle(5)]), 7, budget_limit=5,
                             threads=threads)
        msg = str(info.value)
        assert msg.startswith("forb(C5) at level 5, graph D??: ")
        assert msg.endswith("exceeded node budget 5")
        assert info.value.__cause__ is not None


class TestDeterminism:
    def test_thread_count_does_not_change_output(self):
        fam = HST(2, 0)
        t1 = enumerate_family(fam, 6, threads=1)
        t2 = enumerate_family(fam, 6, threads=2)
        assert t1.to_csv() == t2.to_csv()
        assert all(a == b for a, b in zip(t1.members, t2.members))

    def test_repeat_runs_identical(self):
        a = enumerate_family(Forb([path(4)]), 5).to_csv()
        b = enumerate_family(Forb([path(4)]), 5).to_csv()
        assert a == b


# a family and the top level of its counted run
COUNTED = [
    (ALL, 7), (Forb([complete(3)]), 9), (HST(2, 0), 9), (HST(3, 0), 8),
    (PJFamily(Constellation(decode("A?"), (0, 1), (1, 1), (0, 0))), 7),
    (ReducedFamily(Forb([cycle(5)]), 2), 7),
]


@functools.lru_cache(maxsize=None)
def _kept(fam, n):
    return enumerate_family(fam, n)


class TestCountedLevel:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("fam, n", COUNTED,
                             ids=[f"{f.text()}-{n}" for f, n in COUNTED])
    def test_counts_equal_a_members_kept_run(self, fam, n, threads):
        counted = enumerate_family(fam, n, threads=threads,
                                   keep_members=False)
        assert counted.to_csv() == _kept(fam, n).to_csv()
        assert counted.members is None

    def test_top_level_takes_fewer_canonical_forms(self, monkeypatch):
        import hfspeed.enumeration as enumeration
        calls = []
        real = enumeration.canonical_form

        def spy(g):
            calls.append(g.n)
            return real(g)

        monkeypatch.setattr(enumeration, "canonical_form", spy)
        fam = Forb([complete(3)])
        enumerate_family(fam, 8)
        kept = sorted(calls)
        calls.clear()
        enumerate_family(fam, 8, keep_members=False)
        # the levels below the top are built as before
        assert [k for k in kept if k < 8] == [k for k in sorted(calls)
                                              if k < 8]
        assert calls.count(8) < kept.count(8)

    def test_checkpointed_run_writes_the_same_files(self, tmp_path):
        bare, kept = tmp_path / "bare", tmp_path / "kept"
        fam = Forb([complete(3)])
        t = enumerate_family(fam, 7, keep_members=False,
                             checkpoint_dir=str(bare))
        enumerate_family(fam, 7, checkpoint_dir=str(kept))
        names = sorted(os.listdir(kept))
        assert sorted(os.listdir(bare)) == names and len(names) == 8
        for name in names:
            assert (bare / name).read_bytes() == (kept / name).read_bytes()
        assert t.unlabeled == TRIANGLE_FREE[:8]


# (f, within) pairs whose tally is checked against their intersection
WITHIN = [(ALL, HST(2, 0)), (Forb([complete(3)]), HST(2, 0)),
          (Forb([cycle(5)]), Forb([complete(3)]))]


class TestWithin:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("route", ["kept", "counted", "resumed"])
    @pytest.mark.parametrize("f, g", WITHIN,
                             ids=[f"{f.text()}-{g.text()}" for f, g in WITHIN])
    def test_tally_is_the_intersections_count(self, f, g, route, threads,
                                              tmp_path):
        kw = {"threads": threads, "keep_members": route == "kept"}
        if route == "resumed":
            kw["checkpoint_dir"] = str(tmp_path)
            enumerate_family(f, 5, **kw)
        t = enumerate_family(f, 7, within=g, **kw)
        both = enumerate_family(IntersectionFam(f, g), 7, keep_members=False)
        assert t.within_labeled == both.labeled
        assert t.to_csv() == _kept(f, 7).to_csv()
        if route == "resumed":
            # the tally leaves the level files as a run without it writes
            plain = tmp_path / "plain"
            enumerate_family(f, 7, checkpoint_dir=str(plain))
            for name in os.listdir(plain):
                assert (tmp_path / name).read_bytes() == \
                    (plain / name).read_bytes()

    def test_no_within_no_tally(self):
        assert enumerate_family(ALL, 3).within_labeled is None
        assert enumerate_family(ALL, 0, within=S).within_labeled == [1]


# a pool worker of enumerate_family(forb(K3), 7, threads=2) kills itself
# while computing level 5; the run must end with a typed refusal
DEAD_WORKER = """
import os, signal
import hfspeed.enumeration as enumeration
from hfspeed.errors import ResourceLimitError
from hfspeed.families import Forb
from hfspeed.graphs import complete

main, real = os.getpid(), enumeration._child_records

def dies(family, parents, n, *rest):
    if n == 4 and os.getpid() != main:
        os.kill(os.getpid(), signal.SIGKILL)
    return real(family, parents, n, *rest)

enumeration._child_records = dies
try:
    enumeration.enumerate_family(Forb([complete(3)]), 7, threads=2)
except ResourceLimitError as e:
    print(e)
"""


class TestPool:
    def test_dead_worker_is_a_typed_refusal(self):
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        proc = subprocess.Popen(
            [sys.executable, "-c", DEAD_WORKER],
            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("the run hung after a pool worker died")
        assert proc.returncode == 0, err
        assert out == "forb(K3) at level 5: a worker process died\n"

    def test_workers_capped_at_the_cpus(self, monkeypatch):
        # a recording pool that maps in process, so nothing is forked
        import concurrent.futures

        made = []

        class Recorder:
            def __init__(self, max_workers, mp_context):
                made.append(max_workers)

            def map(self, fn, *iterables):
                return map(fn, *iterables)

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            Recorder)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        fam = Forb([complete(3)])
        t = enumerate_family(fam, 5, threads=10**6)
        assert made == [2]
        assert t.to_csv() == enumerate_family(fam, 5, threads=1).to_csv()


class _MakesMarker:
    """Unpickling one calls os.mkdir(path)."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return os.mkdir, (self.path,)


class TestCheckpoints:
    def test_resume_matches_fresh(self, tmp_path):
        fam = HST(2, 0)
        ck = str(tmp_path)
        enumerate_family(fam, 4, checkpoint_dir=ck)
        resumed = enumerate_family(fam, 6, checkpoint_dir=ck)
        fresh = enumerate_family(fam, 6)
        assert resumed.to_csv() == fresh.to_csv()
        assert resumed.members == fresh.members

    def test_checkpoints_are_per_family(self, tmp_path):
        ck = str(tmp_path)
        enumerate_family(HST(2, 0), 4, checkpoint_dir=ck)
        t = enumerate_family(Forb([complete(3)]), 4, checkpoint_dir=ck)
        assert t.unlabeled == TRIANGLE_FREE[:5]

    def test_checkpoints_keep_reduced_levels_apart(self, tmp_path):
        # red(F) at l = 1 and l = 2 share their text; the checkpoint key
        # must still tell them apart
        from hfspeed.structure import ReducedFamily
        ck = str(tmp_path)
        enumerate_family(ReducedFamily(Forb([cycle(5)]), 1), 6,
                         checkpoint_dir=ck)
        t = enumerate_family(ReducedFamily(Forb([cycle(5)]), 2), 6,
                             checkpoint_dir=ck)
        assert t.unlabeled == [1, 1, 2, 4, 8, 12, 20]

    def test_resumed_members_match_fresh_at_every_level(self, tmp_path):
        fam = Forb([complete(3)])
        ck = str(tmp_path)
        enumerate_family(fam, 5, checkpoint_dir=ck)
        resumed = enumerate_family(fam, 7, checkpoint_dir=ck)
        fresh = enumerate_family(fam, 7)
        for n in range(8):
            assert resumed.members[n] == fresh.members[n]
            assert len(resumed.members[n]) == resumed.unlabeled[n]

    def test_resume_reads_lower_levels_from_disk(self, tmp_path, monkeypatch):
        import hfspeed.enumeration as enumeration
        fam = Forb([complete(3)])
        ck = str(tmp_path)
        enumerate_family(fam, 5, checkpoint_dir=ck)
        levels = []
        real = enumeration._child_records

        def spy(family, parents, n, *rest):
            levels.append(n)
            return real(family, parents, n, *rest)

        monkeypatch.setattr(enumeration, "_child_records", spy)
        t = enumerate_family(fam, 7, checkpoint_dir=ck)
        assert levels == [5, 6]
        assert [len(m) for m in t.members] == TRIANGLE_FREE[:8]


    def test_interrupted_checkpoint_write_leaves_no_file(
            self, tmp_path, monkeypatch):
        import pickle
        fam = Forb([complete(3)])
        ck = str(tmp_path)
        real = pickle.dump
        calls = []

        def dump_then_fail(obj, fh):
            calls.append(1)
            if len(calls) < 4:
                return real(obj, fh)
            fh.write(pickle.dumps(obj)[:20])
            raise KeyboardInterrupt

        monkeypatch.setattr(pickle, "dump", dump_then_fail)
        with pytest.raises(KeyboardInterrupt):
            enumerate_family(fam, 5, checkpoint_dir=ck)
        monkeypatch.setattr(pickle, "dump", real)
        # levels 0..2 were written whole; level 3 left nothing behind
        names = sorted(os.listdir(ck))
        assert [name[-6:] for name in names] == ["00.pkl", "01.pkl", "02.pkl"]
        t = enumerate_family(fam, 5, checkpoint_dir=ck)
        assert t.unlabeled == TRIANGLE_FREE[:6]

    def test_truncated_checkpoint_counts_as_missing(self, tmp_path):
        fam = Forb([complete(3)])
        ck = str(tmp_path)
        fresh = enumerate_family(fam, 6)
        enumerate_family(fam, 6, checkpoint_dir=ck)
        names = sorted(os.listdir(ck))
        top = os.path.join(ck, names[-1])
        lower = os.path.join(ck, names[3])
        with open(top, "rb") as fh:
            whole = fh.read()
        for path in (top, lower):
            with open(path, "rb") as fh:
                data = fh.read()
            with open(path, "wb") as fh:
                fh.write(data[:len(data) // 2])
        resumed = enumerate_family(fam, 6, checkpoint_dir=ck)
        assert resumed.to_csv() == fresh.to_csv()
        assert resumed.members == fresh.members
        # the recomputed top level was written back whole
        with open(top, "rb") as fh:
            assert fh.read() == whole

    def test_recomputed_lower_level_is_written_back(
            self, tmp_path, monkeypatch):
        import hfspeed.enumeration as enumeration
        fam = Forb([complete(3)])
        fresh_dir, ck = tmp_path / "fresh", tmp_path / "ck"
        fresh = enumerate_family(fam, 6, checkpoint_dir=str(fresh_dir))
        enumerate_family(fam, 6, checkpoint_dir=str(ck))
        name = sorted(os.listdir(ck))[3]
        level3 = ck / name
        data = level3.read_bytes()
        level3.write_bytes(data[:len(data) // 2])
        levels = []
        real = enumeration._child_records

        def spy(family, parents, n, *rest):
            levels.append(n)
            return real(family, parents, n, *rest)

        monkeypatch.setattr(enumeration, "_child_records", spy)
        first = enumerate_family(fam, 6, checkpoint_dir=str(ck))
        assert levels == [2]
        assert level3.read_bytes() == (fresh_dir / name).read_bytes()
        levels.clear()
        second = enumerate_family(fam, 6, checkpoint_dir=str(ck))
        assert levels == []
        assert first.members == second.members == fresh.members

    def test_another_familys_files_are_not_loaded(self, tmp_path):
        k3, h, ck = tmp_path / "k3", tmp_path / "h", tmp_path / "ck"
        enumerate_family(Forb([complete(3)]), 5, checkpoint_dir=str(k3))
        enumerate_family(HST(2, 0), 5, checkpoint_dir=str(h))
        ck.mkdir()
        # forb(K3)'s level files under H(2, 0)'s names
        for src, dst in zip(sorted(os.listdir(k3)), sorted(os.listdir(h))):
            (ck / dst).write_bytes((k3 / src).read_bytes())
        resumed = enumerate_family(HST(2, 0), 5, checkpoint_dir=str(ck))
        fresh = enumerate_family(HST(2, 0), 5)
        assert resumed.to_csv() == fresh.to_csv()
        assert resumed.members == fresh.members
        for name in os.listdir(h):
            assert (ck / name).read_bytes() == (h / name).read_bytes()

    def test_loading_a_checkpoint_runs_no_code(self, tmp_path):
        fam = Forb([complete(3)])
        fresh_dir, ck = tmp_path / "fresh", tmp_path / "ck"
        marker = tmp_path / "marker"
        fresh = enumerate_family(fam, 5, checkpoint_dir=str(fresh_dir))
        enumerate_family(fam, 5, checkpoint_dir=str(ck))
        names = sorted(os.listdir(ck))
        evil = pickle.dumps(_MakesMarker(str(marker)))
        # a bare pickle, and one followed by its own sha256
        (ck / names[2]).write_bytes(evil)
        (ck / names[4]).write_bytes(evil + hashlib.sha256(evil).digest())
        resumed = enumerate_family(fam, 5, checkpoint_dir=str(ck))
        assert not marker.exists()
        assert resumed.to_csv() == fresh.to_csv()
        assert resumed.members == fresh.members
        for name in names:
            assert (ck / name).read_bytes() == (fresh_dir / name).read_bytes()

    def test_redundant_generators_resume_to_the_same_groups(self, tmp_path):
        # level files may carry more generators than the search now finds
        # (it once kept one per leaf equal to the first); the record shape
        # is the same, so they load, and a generating set of the same
        # group reduces the same subsets
        fam = Forb([complete(3)])
        ck = str(tmp_path)
        enumerate_family(fam, 5, checkpoint_dir=ck)
        extra = 0
        for name in os.listdir(ck):
            path = os.path.join(ck, name)
            with open(path, "rb") as fh:
                head, recs = pickle.loads(fh.read()[:-32])
            n = head[1]
            ident = tuple(range(n))
            padded = []
            for rows, gens, aut in recs:
                more = {tuple(p[q[i]] for i in range(n))
                        for p in gens for q in gens} - set(gens) - {ident}
                extra += len(more)
                padded.append((rows, gens + tuple(sorted(more)), aut))
            body = pickle.dumps((head, padded))
            with open(path, "wb") as fh:
                fh.write(body + hashlib.sha256(body).digest())
        assert extra > 0
        resumed = enumerate_family(fam, 7, checkpoint_dir=ck)
        fresh = enumerate_family(fam, 7)
        assert resumed.to_csv() == fresh.to_csv()
        assert resumed.members == fresh.members
        assert resumed.auts == fresh.auts
        for n in range(8):
            for a, b in zip(resumed.gens[n], fresh.gens[n]):
                # <a> = <b>: equal orders, and b adds nothing to a
                assert group_order(a, n) == group_order(a + b, n) \
                    == group_order(b, n)

    def test_damaged_level_is_recomputed_without_unpickling(
            self, tmp_path, monkeypatch):
        import hfspeed.enumeration as enumeration
        fam = Forb([complete(3)])
        fresh_dir, ck = tmp_path / "fresh", tmp_path / "ck"
        fresh = enumerate_family(fam, 6, checkpoint_dir=str(fresh_dir))
        enumerate_family(fam, 6, checkpoint_dir=str(ck))
        name = sorted(os.listdir(ck))[4]
        level4 = ck / name
        data = bytearray(level4.read_bytes())
        data[len(data) // 2] ^= 1  # one bit of one record
        level4.write_bytes(bytes(data))
        levels, loads = [], []
        real = enumeration._child_records

        def spy(family, parents, n, *rest):
            levels.append(n)
            return real(family, parents, n, *rest)

        class CountingUnpickler(enumeration._PlainUnpickler):
            def load(self):
                loads.append(1)
                return super().load()

        monkeypatch.setattr(enumeration, "_child_records", spy)
        monkeypatch.setattr(enumeration, "_PlainUnpickler", CountingUnpickler)
        resumed = enumerate_family(fam, 6, checkpoint_dir=str(ck))
        assert levels == [3]
        # the six whole levels are unpickled, the damaged one is not
        assert len(loads) == 6
        assert level4.read_bytes() == (fresh_dir / name).read_bytes()
        assert resumed.to_csv() == fresh.to_csv()
        assert resumed.members == fresh.members


class TestSpeedDelta:
    def test_family_against_itself_is_flat(self, monkeypatch):
        # f = H(l, 0) is its own benchmark, so one enumeration serves both
        # sides (its top level read off level 5, as _labeled_counts does)
        from hfspeed import enumeration
        calls = []
        real = enumeration.enumerate_family

        def spy(f, n_max, **kw):
            calls.append((f.text(), n_max))
            return real(f, n_max, **kw)

        monkeypatch.setattr(enumeration, "enumerate_family", spy)
        rep = speed_delta(HST(2, 0), 2, 6)
        assert calls == [("H(2, 0)", 5)]
        assert rep.delta == [0.0] * 7
        assert rep.k_fit == 0
        assert rep.drift == 0.0

    def test_fitter_recovers_exact_log_coefficient(self):
        bench = enumerate_family(HST(2, 0), 8, keep_members=False)
        cooked = SpeedTable("synthetic", 8, bench.unlabeled,
                            [c * n ** 3 for n, c in enumerate(bench.labeled)])
        rep = speed_delta(HST(2, 0), 2, 8, table=cooked, bench=bench)
        assert rep.k_fit == 3
        assert rep.drift == pytest.approx(0.0, abs=1e-9)
        # without bench, a given table is still compared against the
        # real H(2, 0) counts, not against itself
        rep = speed_delta(HST(2, 0), 2, 8, table=cooked)
        assert rep.k_fit == 3
        assert rep.drift == pytest.approx(0.0, abs=1e-9)

    def test_triangle_free_vs_bipartite(self):
        # the gap opens at n = 5 (C5), and at desk scale it is still
        # widening: the empirical slope over n in 5..8 rounds to 1, not to
        # the asymptotic 0
        rep = speed_delta(Forb([complete(3)]), 2, 8)
        assert isinstance(rep, DeltaReport)
        assert all(d == 0 for d in rep.delta[:5])
        assert rep.delta[5] == pytest.approx(math.log2(388 / 376))
        assert rep.delta[6] == pytest.approx(math.log2(5789 / 5177))
        assert rep.k_fit == 1

    def test_order_cap(self):
        # the listed route builds one level less, but still refuses an
        # n_max that enumerate_family refuses
        with pytest.raises(CapacityError):
            speed_delta(Forb([complete(3)]), 2, ENUM_MAX_N + 1)

    def test_accepts_precomputed_tables(self):
        fam = Forb([complete(3)])
        t = enumerate_family(fam, 6, keep_members=False)
        b = enumerate_family(HST(2, 0), 6, keep_members=False)
        rep = speed_delta(fam, 2, 6, table=t, bench=b)
        assert rep.n_max == 6
        assert rep.fit_ns == [4, 5, 6]


class TestSerialization:
    def test_csv_shape(self):
        t = enumerate_family(M, 4, keep_members=False)
        lines = t.to_csv().splitlines()
        assert lines[0] == "n,unlabeled,labeled,h_bits"
        assert len(lines) == 6
        assert lines[3].startswith("2,2,2,1.")

    def test_json_obj(self):
        t = enumerate_family(M, 3, keep_members=False)
        obj = t.to_json_obj()
        assert obj["rows"][3] == {
            "n": 3, "unlabeled": 2, "labeled": "4",
            "h_bits": pytest.approx(2.0)}
