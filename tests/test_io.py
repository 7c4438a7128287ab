import hashlib
import json
import math

import numpy as np

from nanoramsey.io import config_sha256, csv_text, fmt, json_table


class TestFmt:
    def test_bool_before_int(self):
        # bool subclasses int; it must still print as a JSON-style literal
        assert fmt(True) == "true"
        assert fmt(False) == "false"

    def test_int_is_exact(self):
        assert fmt(0) == "0"
        assert fmt(-17) == "-17"
        assert fmt(10**20) == "100000000000000000000"

    def test_float_twelve_significant_digits(self):
        assert fmt(1.0) == "1.00000000000e+00"
        assert fmt(-0.0) == "-0.00000000000e+00"
        assert fmt(1.0 / 3.0) == "3.33333333333e-01"
        assert fmt(2.0 / 3.0) == "6.66666666667e-01"        # rounded, not truncated
        assert fmt(1.08e6) == "1.08000000000e+06"
        assert fmt(6.02214076e-300) == "6.02214076000e-300"
        assert fmt(math.inf) == "inf"
        assert fmt(math.nan) == "nan"

    def test_numpy_float64_formats_as_python_float(self):
        for value in (0.1, -2.5e-17, 1.0e300, 123456.789):
            assert fmt(np.float64(value)) == fmt(value) == f"{value:.11e}"


class TestTables:
    HEADER = ["param_value", "p0", "ok"]
    ROWS = [(0.5, np.float64(0.25), True), (1, 1.0 / 3.0, False)]

    def test_csv_bytes(self):
        assert csv_text(self.HEADER, self.ROWS) == (
            "param_value,p0,ok\n"
            "5.00000000000e-01,2.50000000000e-01,true\n"
            "1,3.33333333333e-01,false\n"
        )

    def test_csv_header_only(self):
        assert csv_text(["a", "b"], []) == "a,b\n"

    def test_json_bytes(self):
        text = json_table(self.HEADER, self.ROWS, {"seed": None, "command": "sweep"})
        assert text == (
            '{\n'
            ' "columns": [\n  "param_value",\n  "p0",\n  "ok"\n ],\n'
            ' "metadata": {\n  "command": "sweep",\n  "seed": null\n },\n'
            ' "rows": [\n'
            '  [\n   "5.00000000000e-01",\n   "2.50000000000e-01",\n   "true"\n  ],\n'
            '  [\n   "1",\n   "3.33333333333e-01",\n   "false"\n  ]\n'
            ' ]\n'
            '}'
        )

    def test_json_cells_equal_csv_cells(self):
        rows = json.loads(json_table(self.HEADER, self.ROWS, {}))["rows"]
        csv_rows = csv_text(self.HEADER, self.ROWS).splitlines()[1:]
        assert [",".join(r) for r in rows] == csv_rows


def test_config_sha256():
    text = "mass = 1.25e-17\n"
    assert config_sha256(text) == hashlib.sha256(text.encode("utf-8")).hexdigest()
