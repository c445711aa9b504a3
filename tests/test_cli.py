import csv
import dataclasses
import io
import json
import struct
import zlib

import numpy as np
import pytest
from click.testing import CliRunner

from ramprimes import prime_core, ramanujan_core, twin_stats
from ramprimes.cli import COVERAGE_MARGIN, _cached, cli
from ramprimes.errors import CoverageError, InternalConsistencyError
from test_table_file import HEADER_SIZE

FIRST_21 = [2, 11, 17, 29, 41, 47, 59, 67, 71, 97, 101, 107, 127, 149, 151,
            167, 179, 181, 227, 229, 233]


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(cli, list(args), catch_exceptions=False)


def test_compute_count(runner):
    result = invoke(runner, "compute", "--count", "21")
    assert result.exit_code == 0
    values = [int(line.split()[1]) for line in result.output.splitlines()[1:]]
    assert values == FIRST_21


def test_compute_below(runner):
    result = invoke(runner, "compute", "--below", "100", "--format", "csv")
    rows = list(csv.reader(io.StringIO(result.output)))
    assert rows[0] == ["n", "value"]
    assert [int(r[1]) for r in rows[1:]] == FIRST_21[:10]


def test_compute_scientific_notation_bound(runner):
    result = invoke(runner, "compute", "--below", "1e2", "--format", "json")
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert [row["value"] for row in doc] == FIRST_21[:10]


def test_compute_usage_errors(runner):
    assert invoke(runner, "compute").exit_code == 2
    assert invoke(runner, "compute", "--count", "5", "--below", "10").exit_code == 2
    assert invoke(runner, "compute", "--below", "abc").exit_code == 2


@pytest.mark.parametrize("bound", ["1e400", "inf", "-inf", "nan"])
def test_non_finite_bound_is_usage_error(runner, bound):
    result = runner.invoke(cli, ["compute", "--below", bound])
    assert result.exit_code == 2
    assert f"{bound!r} is not an integer bound" in result.stderr


@pytest.mark.parametrize("args", [
    ["verify", "proposition2", "--bound", "-5"],
    ["gaps", "sharp", "--bound", "0"],
    ["gaps", "twin-check", "--bound", "0"],
    ["brun", "--bound", "0"],
    ["compute", "--count", "0"],
    ["verify", "theorem2", "--max-n", "-1e3"],
])
def test_non_positive_bound_is_usage_error(runner, args):
    result = runner.invoke(cli, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert f"{args[-1]!r} is not a positive bound" in result.stderr


@pytest.mark.parametrize("args", [
    ["verify", "theorem2", "--max-n", "1"],  # the chain needs n > 1
    ["verify", "conjecture1", "--limit", "1"],
    ["verify", "conjecture1", "--m", "0"],
    ["compute", "--below", "1"],
    ["twins", "--bound", "2"],
    ["runs", "--max-decade", "0"],
    ["gaps", "sharp", "--max-run", "0"],
])
def test_option_below_its_range_is_usage_error(runner, args):
    result = runner.invoke(cli, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert f"Invalid value for '{args[-2]}'" in result.stderr


BIG = "9" * 311  # past the largest float


@pytest.mark.parametrize("args", [
    ["runs", "--max-decade", "400"],
    ["twins", "--bound", BIG],
    ["compute", "--count", BIG],
    ["verify", "theorem2", "--max-n", BIG],
    ["verify", "conjecture1", "--m", str(10 ** 30)],
])
def test_option_above_its_range_is_usage_error(runner, args):
    result = runner.invoke(cli, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert f"Invalid value for '{args[-2]}'" in result.stderr


def test_largest_bound_is_not_a_usage_error(runner):
    result = runner.invoke(cli, ["twins", "--bound", "1e18"])
    assert result.exit_code == 3
    assert "resource limit: " in result.stderr


def test_unknown_flag_is_usage_error(runner):
    assert runner.invoke(cli, ["compute", "--frobnicate"]).exit_code == 2


def test_verify_theorem2(runner):
    result = invoke(runner, "verify", "theorem2", "--max-n", "50")
    assert result.exit_code == 0
    assert "holds" in result.output


def test_verify_theorem4(runner):
    result = invoke(runner, "verify", "theorem4")
    assert result.exit_code == 0
    assert "41/47 at n=5" in result.output


def test_verify_conjecture1(runner):
    result = invoke(runner, "verify", "conjecture1", "--m", "3", "--limit", "1e5")
    assert result.exit_code == 0
    assert "no violation" in result.output


@pytest.mark.parametrize("m, limit, stdout, note", [
    ("3", "1e5", "no violation for m=3, n >= 189, R_mn < 100000\n",
     "below N(3) = 189 is 188, so the threshold is sharp"),
    # R_2n < 1e4 reaches only part of n < 1245, so sharpness cannot show
    ("2", "1e4", "no violation for m=2, n >= 1245, R_mn < 10000\n",
     "below N(2) = 1245 is 247, and none of n = 248..1244 with R_mn < 10000"),
])
def test_verify_conjecture1_notes_last_violation_below_threshold(runner, m, limit, stdout,
                                                                  note):
    result = invoke(runner, "verify", "conjecture1", "--m", m, "--limit", limit)
    assert result.exit_code == 0
    assert result.stdout == stdout
    assert note in result.stderr


@pytest.mark.parametrize("module, name, value, args, text", [
    (ramanujan_core, "log_bound_failures", list(range(2, 11)),
     ["verify", "theorem2", "--max-n", "10"],
     "inequality chain FAILED at n = [2, 3, 4, 5, 6, 7, 8, 9, 10]"),
    (ramanujan_core, "verify_max_ratio_bound", False, ["verify", "theorem4"],
     "maximum-ratio check FAILED"),
    (ramanujan_core, "rank_scaling_violations", [(2, 5)],
     ["verify", "conjecture1", "--m", "2", "--limit", "1e4"], "VIOLATIONS: [(2, 5)]"),
    (twin_stats, "lower_membership_violations", [(149, 151)],
     ["verify", "proposition2", "--bound", "1e3"], "COUNTEREXAMPLES: [(149, 151)]"),
    (twin_stats, "ratio_inequalities_strict", False, ["twins", "--bound", "1e5", "--strict"],
     "strict ratio inequalities above 1e5: FAIL"),
])
def test_failed_verification_exits_one(runner, monkeypatch, module, name, value, args, text):
    monkeypatch.setattr(module, name, lambda *_: value)
    result = runner.invoke(cli, args)
    assert result.exit_code == 1
    assert text in result.output


def test_verify_proposition2(runner):
    result = invoke(runner, "verify", "proposition2", "--bound", "1e4")
    assert result.exit_code == 0
    assert "no counterexample" in result.output


def test_twins_csv_row(runner):
    result = invoke(runner, "twins", "--bound", "1e4", "--format", "csv")
    rows = list(csv.reader(io.StringIO(result.output)))
    assert rows[0][:4] == ["bound", "pi2", "pi21", "pi22"]
    assert rows[1][:4] == ["10000", "205", "167", "73"]
    assert rows[1][4:] == ["0.815", "0.356", "0.437"]


def test_twins_json_round_trip(runner):
    result = invoke(runner, "twins", "--bound", "1e3", "--format", "json")
    doc = json.loads(result.output)
    assert doc == [{
        "bound": 1000, "pi2": 35, "pi21": 28, "pi22": 10,
        "ratio21": "0.800", "ratio22": "0.286", "ratio2221": "0.357",
    }]


def test_twins_ratio_cells_blank_when_undefined(runner):
    result = invoke(runner, "twins", "--bound", "10", "--format", "csv")
    rows = list(csv.reader(io.StringIO(result.output)))
    assert rows[1] == ["10", "2", "0", "0", "0.000", "0.000", ""]


def test_runs_csv_matches_reference(runner):
    result = invoke(runner, "runs", "--max-decade", "3", "--format", "csv")
    rows = list(csv.reader(io.StringIO(result.output)))
    assert rows[0] == ["n", "p_ram", "expected_ram", "actual_ram",
                       "expected_nonram", "actual_nonram"]
    assert rows[1] == ["1", "0.250", "1", "1", "2", "3"]
    assert rows[2] == ["2", "0.400", "3", "2", "5", "4"]
    assert rows[3] == ["3", "0.429", "6", "5", "8", "7"]


@pytest.mark.parametrize("args", [["compute", "--below", "1e4"], ["twins", "--bound", "10"],
                                  ["twins", "--bound", "1e4"], ["runs", "--max-decade", "3"]])
def test_csv_is_what_the_csv_module_writes(runner, args):
    out = invoke(runner, *args, "--format", "csv").stdout_bytes.decode()
    buf = io.StringIO()
    csv.writer(buf).writerows(csv.reader(io.StringIO(out, newline="")))
    assert out == buf.getvalue() and out.endswith("\r\n")


def test_brun_output(runner):
    result = invoke(runner, "brun", "--kind", "both", "--bound", "1000")
    assert result.exit_code == 0
    assert "sum = 0.06431827623 over 10 pairs" in result.output


def test_gaps_sharp_json_lines(runner):
    result = invoke(runner, "gaps", "sharp", "--max-run", "3", "--bound", "3000")
    lines = [json.loads(line) for line in result.output.splitlines()]
    assert lines[0]["run_start"] == 11 and lines[0]["sharp"]
    assert lines[1] == {"run_length": 2, "not_found_below": 3000}
    assert lines[2]["run_start"] == 1439 and lines[2]["run_length"] == 3
    assert lines[2]["enclosing_gap"] == [720, 726]


def test_gaps_twin_check(runner):
    result = invoke(runner, "gaps", "twin-check", "--bound", "1e4")
    assert result.exit_code == 0
    assert "smallest enclosing gap length 5" in result.output


@pytest.mark.parametrize("bound, count", [(149, 0), (150, 1)])
def test_gaps_twin_check_counts_below_the_bound(runner, bound, count):
    # (149, 151) is the least twin Ramanujan pair
    result = invoke(runner, "gaps", "twin-check", "--bound", str(bound))
    assert result.exit_code == 0
    assert result.output.startswith(f"{count} twin Ramanujan pairs below {bound};")


@pytest.mark.parametrize("bound, line", [
    (149, "0 twin Ramanujan pairs below 149; no enclosing gap measured"),
    (150, "1 twin Ramanujan pairs below 150; smallest enclosing gap length 5"),
])
def test_gaps_twin_check_line(runner, bound, line):
    result = invoke(runner, "gaps", "twin-check", "--bound", str(bound))
    assert result.exit_code == 0
    assert result.output == line + "\n"


def test_output_file(runner, tmp_path):
    out = tmp_path / "report.csv"
    result = invoke(runner, "twins", "--bound", "1e3", "--format", "csv",
                    "--output", str(out))
    assert result.exit_code == 0
    assert "35" in out.read_text()


def test_gaps_sharp_output_file_matches_stdout(runner, tmp_path):
    out = tmp_path / "sharp.jsonl"
    args = ["gaps", "sharp", "--max-run", "3", "--bound", "3000"]
    result = invoke(runner, *args, "--output", str(out))
    assert result.exit_code == 0 and result.stdout == ""
    assert out.read_text() == invoke(runner, *args).stdout


def test_twins_strict_below_scope_is_usage_error(runner):
    assert invoke(runner, "twins", "--bound", "100", "--strict").exit_code == 2


def test_resource_limit_maps_to_exit_three(runner, monkeypatch):
    from ramprimes import cli as cli_module
    from ramprimes.errors import ResourceLimitError

    def exploding_build(limit, **kwargs):
        raise ResourceLimitError("synthetic ceiling")

    monkeypatch.setattr(cli_module.prime_core, "build", exploding_build)
    result = runner.invoke(cli, ["compute", "--count", "10"])
    assert result.exit_code == 3


def test_resource_limit_hit_before_any_allocation_exits_three(runner):
    result = runner.invoke(cli, ["runs", "--max-decade", "12"])  # a sieve to about 1.6e12
    assert result.exit_code == 3
    assert result.stdout == ""
    assert "resource limit: " in result.stderr


# options check their arguments, so a library ValueError is a fault, not bad usage
@pytest.mark.parametrize("error", [InternalConsistencyError, CoverageError, ValueError],
                         ids=lambda error: error.__name__)
def test_internal_fault_maps_to_exit_four(runner, monkeypatch, error):
    from ramprimes import gap_analysis

    def faulty_table(rt, pt):
        raise error("synthetic fault")

    monkeypatch.setattr(gap_analysis, "twin_gap_table", faulty_table)
    result = runner.invoke(cli, ["gaps", "twin-check", "--bound", "1e3"])
    assert result.exit_code == 4
    assert result.stdout == ""
    assert "internal fault: synthetic fault" in result.stderr


def test_cache_warm_and_cold_identical(runner, tmp_path):
    cache = tmp_path / "cache"
    args = ["--cache-dir", str(cache), "twins", "--bound", "1e3", "--format", "csv"]
    cold = invoke(runner, *args)
    assert any(cache.iterdir())
    warm = invoke(runner, *args)
    assert cold.output == warm.output
    assert cold.exit_code == warm.exit_code == 0


def test_cache_write_goes_through_a_temporary_file(tmp_path, capsys):
    class Table:
        def __init__(self, fail):
            self.fail = fail

        def save(self, path):
            with open(path, "wb") as fh:
                fh.write(b"RPRT partial")
                if self.fail:
                    raise OSError("disk full")

    assert _cached(tmp_path, "t.rprt", None, None, lambda: Table(fail=True)).fail
    assert list(tmp_path.iterdir()) == []  # no partial table, no temporary file
    assert capsys.readouterr().err == "note: cache file not written: disk full\n"
    _cached(tmp_path, "t.rprt", None, None, lambda: Table(fail=False))
    assert [p.name for p in tmp_path.iterdir()] == ["t.rprt"]


def test_cache_dir_under_a_regular_file_is_a_note(runner, tmp_path):
    blocker = tmp_path / "f"
    blocker.touch()
    for args, notes in ((["compute", "--count", "5"], 1),
                        (["twins", "--bound", "1e3", "--format", "csv"], 2)):
        result = invoke(runner, "--cache-dir", str(blocker / "sub"), *args)
        assert result.exit_code == 0
        assert result.stdout == invoke(runner, *args).stdout
        assert result.stderr.count("note: cache file not written: ") == notes
        assert result.stderr.count("\n") == notes
    assert blocker.read_bytes() == b"" and list(tmp_path.iterdir()) == [blocker]


def test_unreadable_cache_file_is_rebuilt(runner, tmp_path):
    cache = tmp_path / "cache"
    (cache / "primes.rppt").mkdir(parents=True)  # opening it is an OSError
    args = ["compute", "--count", "5"]
    result = invoke(runner, "--cache-dir", str(cache), *args)
    assert result.exit_code == 0
    assert result.stdout == invoke(runner, *args).stdout
    assert "note: rebuilding rejected cache file: " in result.stderr
    assert "note: cache file not written: " in result.stderr  # replacing a directory fails
    assert [p.name for p in cache.iterdir()] == ["primes.rppt"]  # no temporary file left


def test_output_under_a_regular_file_is_a_usage_error(runner, tmp_path):
    blocker = tmp_path / "f"
    blocker.touch()
    for args in (["compute", "--count", "5"],
                 ["gaps", "sharp", "--max-run", "2", "--bound", "3000"]):
        result = invoke(runner, *args, "--output", str(blocker / "out.txt"))
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: cannot write --output: ")
        assert result.stderr.count("\n") == 1


def listing(cache):
    """{name: (size, mtime)} of a cache directory: unchanged by a cache hit."""
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in cache.iterdir()}


COVERED_BY_1E5 = [
    ["twins", "--bound", "5e4"],
    ["brun", "--kind", "one", "--bound", "5e4"],
    ["verify", "conjecture1", "--m", "3", "--limit", "5e4"],
    ["compute", "--below", "1e4", "--format", "csv"],
    ["gaps", "sharp", "--max-run", "3", "--bound", "5e4"],
    ["gaps", "twin-check", "--bound", "1e4"],
]


def test_covering_cache_answers_smaller_requests(runner, tmp_path):
    cache = tmp_path / "cache"
    invoke(runner, "--cache-dir", str(cache), "twins", "--bound", "1e5")
    files = listing(cache)
    assert sorted(files) == ["primes.rppt", "ramanujan.rprt"]
    for args in COVERED_BY_1E5:
        cached = invoke(runner, "--cache-dir", str(cache), *args)
        assert listing(cache) == files, args
        uncached = invoke(runner, *args)
        assert cached.exit_code == uncached.exit_code == 0
        assert (cached.stdout, cached.stderr) == (uncached.stdout, uncached.stderr)


def test_larger_request_grows_the_cache_files(runner, tmp_path):
    cache = tmp_path / "cache"
    args = ["--cache-dir", str(cache), "twins", "--bound"]
    invoke(runner, *args, "1e3")
    small = listing(cache)
    invoke(runner, *args, "1e5")
    grown = listing(cache)
    assert sorted(grown) == sorted(small) == ["primes.rppt", "ramanujan.rprt"]
    assert all(grown[name][0] > small[name][0] for name in grown)
    x = 10 ** 5 + COVERAGE_MARGIN
    assert prime_core.load(cache / "primes.rppt").limit == ramanujan_core.prime_limit_for_below(x)
    primes = prime_core.load(cache / "primes.rppt")
    assert ramanujan_core.load(cache / "ramanujan.rprt", primes).complete_below == x
    warm = invoke(runner, *args, "1e3")
    assert listing(cache) == grown
    assert warm.stdout == invoke(runner, "twins", "--bound", "1e3").stdout


def test_each_command_reads_the_prime_table_once(runner, tmp_path, monkeypatch):
    calls = []
    for name in ("build", "load"):
        real = getattr(prime_core, name)
        monkeypatch.setattr(prime_core, name,
                            lambda arg, real=real, name=name: calls.append(name) or real(arg))
    cache = tmp_path / "cache"
    args = ["--cache-dir", str(cache), "twins", "--bound", "1e3"]
    invoke(runner, *args)  # both files miss
    (cache / "ramanujan.rprt").unlink()
    invoke(runner, *args)  # the Ramanujan file misses, the prime file hits
    invoke(runner, *args)  # both hit
    assert calls == ["build", "load", "load"]


def test_compute_below_on_a_covering_cache_builds_nothing(runner, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    invoke(runner, "--cache-dir", str(cache), "twins", "--bound", "1e5")
    args = ["compute", "--below", "1e4", "--format", "csv"]
    expected = invoke(runner, *args).stdout

    def refuse(*_):
        raise AssertionError("compute --below built a table on a covering cache")

    monkeypatch.setattr(prime_core, "build", refuse)
    monkeypatch.setattr(ramanujan_core, "compute_first", refuse)
    assert invoke(runner, "--cache-dir", str(cache), *args).stdout == expected


def test_rejected_cache_file_is_rebuilt(runner, tmp_path):
    cache = tmp_path / "cache"
    args = ["--cache-dir", str(cache), "twins", "--bound", "1e3", "--format", "csv"]
    cold = invoke(runner, *args)
    for pattern in ("primes.rppt", "ramanujan.rprt"):
        (path,) = cache.glob(pattern)
        path.write_bytes(path.read_bytes()[:10])  # cut inside the header
        rebuilt = invoke(runner, *args)
        assert rebuilt.exit_code == 0
        assert rebuilt.stdout == cold.stdout
        assert "rejected cache file" in rebuilt.stderr
        warm = invoke(runner, *args)  # the rebuilt file replaced the bad one
        assert warm.stdout == cold.stdout
        assert warm.stderr == ""


def test_cache_with_impossible_header_is_rebuilt(runner, tmp_path):
    cache = tmp_path / "cache"
    args = ["--cache-dir", str(cache), "twins", "--bound", "1e3", "--format", "csv"]
    cold = invoke(runner, *args)
    # the high byte of the flag byte count (prime table) and of the value
    # count (Ramanujan table): loading them as stated would ask for ~2**64 bytes
    for pattern, offset in (("primes.rppt", 15), ("ramanujan.rprt", 15)):
        (path,) = cache.glob(pattern)
        data = bytearray(path.read_bytes())
        data[offset] ^= 0xFF
        path.write_bytes(bytes(data))
        rebuilt = invoke(runner, *args)
        assert rebuilt.exit_code == 0
        assert rebuilt.stdout == cold.stdout
        assert "rejected cache file" in rebuilt.stderr


def test_cache_with_corrupted_payload_is_rebuilt(runner, tmp_path):
    cache = tmp_path / "cache"
    args = ["--cache-dir", str(cache), "twins", "--bound", "1e3", "--format", "csv"]
    cold = invoke(runner, *args)
    # the flag of 151 (prime table) and the mask bit of R_4 = 29 = p_10 (Ramanujan
    # table): read as stored, either flip changes the census
    for pattern, offset, bit in (("primes.rppt", HEADER_SIZE["primes"] + 5, 0x01),
                                 ("ramanujan.rprt", HEADER_SIZE["ramanujan"] + 1, 0x02)):
        (path,) = cache.glob(pattern)
        data = bytearray(path.read_bytes())
        data[offset] ^= bit
        path.write_bytes(bytes(data))
        rebuilt = invoke(runner, *args)
        assert rebuilt.exit_code == 0
        assert rebuilt.stdout == cold.stdout
        assert "rejected cache file" in rebuilt.stderr and "checksum" in rebuilt.stderr


def test_cache_without_r1_is_rebuilt(runner, tmp_path):
    cache = tmp_path / "cache"
    args = ["compute", "--below", "20000", "--format", "csv"]
    uncached = invoke(runner, *args)
    invoke(runner, "--cache-dir", str(cache), *args)
    # checksum-valid and self-consistent: bit 0 of the mask clear, the count one less
    path = cache / "ramanujan.rprt"
    rt = ramanujan_core.load(path, prime_core.load(cache / "primes.rppt"))
    mask = rt.mask.copy()
    mask[0] &= 0xFE
    dataclasses.replace(rt, values=rt.values[1:], mask=mask).save(path)
    warm = invoke(runner, "--cache-dir", str(cache), *args)
    assert warm.exit_code == 0
    assert warm.stdout == uncached.stdout and warm.stdout.splitlines()[1] == "1,2"
    assert "rejected cache file" in warm.stderr and "leaves out R_1 = 2" in warm.stderr


def old_layout(version, magic, fields, payload):
    """A cache file as versions 2, 3 and 4 wrote it. Version 2: magic, version,
    three uint64 fields, CRC32 of the payload. Versions 3 and 4 (and 5): magic,
    version, payload count, the table's fields, CRC32 of the header and then the
    payload. Version 4 differs from 5 in its prime flags: one bit per odd number."""
    if version == 2:
        head = struct.pack("<4sIQQQI", magic, 2, *fields, zlib.crc32(payload))
    else:
        head = struct.pack(f"<4sIQ{len(fields)}Q", magic, version, payload.size, *fields)
        head += struct.pack("<I", zlib.crc32(payload, zlib.crc32(head)))
    return head + payload.tobytes()


def odd_only_flags(limit):
    """The prime flags of [0, limit] as version 4 stored them: bit i of the
    little-endian bytes stands for the odd number 2 * i + 1."""
    return np.packbits(prime_core.simple_sieve_flags(limit)[1::2], bitorder="little")


@pytest.mark.parametrize("version", [2, 3, 4])
def test_older_cache_files_are_rebuilt(runner, tmp_path, version):
    cache = tmp_path / "cache"
    args = ["--cache-dir", str(cache), "twins", "--bound", "1e3", "--format", "csv"]
    cold = invoke(runner, *args)
    (primes_path,) = cache.glob("primes.rppt")
    (ram_path,) = cache.glob("ramanujan.rprt")
    pt = prime_core.load(primes_path)
    rt = ramanujan_core.load(ram_path, pt)
    flags = odd_only_flags(pt.limit)  # every older layout stored odd-only flags
    values = rt.values.astype(np.int64)  # versions 2 and 3 stored int64 values
    if version == 2:
        primes_fields = [pt.limit, 1 << 16, flags.size]
        ram_fields = [rt.count, rt.scan_limit, rt.complete_below]
    elif version == 3:
        primes_fields, ram_fields = [pt.limit], [rt.scan_limit, rt.complete_below]
    else:  # the header of today, and the packed mask, as version 4 wrote it
        primes_fields, ram_fields = [pt.limit], [rt.scan_limit, rt.complete_below, rt.count]
        values = np.fromfile(ram_path, dtype=np.uint8, offset=HEADER_SIZE["ramanujan"])
    primes_path.write_bytes(old_layout(version, b"RPPT", primes_fields, flags))
    ram_path.write_bytes(old_layout(version, b"RPRT", ram_fields, values))
    rebuilt = invoke(runner, *args)
    assert rebuilt.exit_code == 0
    assert rebuilt.stdout == cold.stdout
    assert rebuilt.stderr.count("rejected cache file") == 2
    assert rebuilt.stderr.count(f"unsupported cache version {version}") == 2
    warm = invoke(runner, *args)
    assert warm.stdout == cold.stdout
    assert warm.stderr == ""
