import io

import numpy as np

from frontlab.blocks import SAMPLE_BLOCK, format_value, write_rows


class TestWriteRows:
    SPECIAL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308,
               1.7976931348623157e308, 0.1, 1.0 / 3.0, 1e16, 123456789012345678.0, -1e-300]

    def test_percent_format_is_the_f_string_format(self):
        rng = np.random.default_rng(9)
        bits = rng.integers(0, 2**63, size=20000, dtype=np.uint64)
        values = list(self.SPECIAL) + bits.view(np.float64).tolist()
        for x in values:
            for v in (float(x), np.float64(x)):
                assert "%.17g" % v == f"{v:.17g}"

    def test_blocks_and_row_format(self):
        rng = np.random.default_rng(10)
        rows = SAMPLE_BLOCK + 11  # three blocks of SAMPLE_BLOCK / 2 two-value rows
        a, b = rng.normal(size=rows), rng.normal(size=rows) ** 9
        fh = io.StringIO()
        write_rows(fh, [a, b], "%.17g;%.17g,x\n")
        assert fh.getvalue() == "".join(f"{x:.17g};{y:.17g},x\n" for x, y in zip(a, b))
        fh = io.StringIO()
        write_rows(fh, [np.array(self.SPECIAL)], "%.17g\n")
        assert fh.getvalue() == "".join(f"{x:.17g}\n" for x in self.SPECIAL)
        fh = io.StringIO()
        write_rows(fh, [np.empty(0)], "%.17g\n")
        assert fh.getvalue() == ""


def test_format_value():
    # summary.txt and verdict.txt write every value through this one form
    assert [format_value(v) for v in (True, False, 0.1, -0.0, float("nan"), 3, "a, b")] == [
        "true", "false", "0.10000000000000001", "-0", "nan", "3", "a, b"]
    assert format_value((1.5, (2, True), "x")) == "1.5, 2, true, x"
