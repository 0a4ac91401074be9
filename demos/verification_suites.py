"""Run the statistical verification suites and print their check tables.

The scaling suite reads the rows that the ICA reductions build, through
their own radii and scaled rows, and confirms that their coordinates have
the laws the reductions need (Exp(1) and Gamma(n+1) for the simplex,
exp(-|x|^p) for the lp ball), along with the lp-ball sampler's
independence facts; the tv suite checks the total-variation machinery,
and the landscape suite the critical-point structure of the third power
sum.  Every statistic is computed with numpy alone.  The same suites back
`simplexlearn verify` on the command line.
"""

from simplexlearn.diagnostics import run_suite

for name in ("scaling", "tv", "landscape"):
    report = run_suite(name, seed=0, n=4 if name == "landscape" else None)
    print(f"== {name} suite: {'PASS' if report['pass'] else 'FAIL'} ({len(report['checks'])} checks)")
    for check in report["checks"]:
        detail = ""
        if "p_value" in check:
            detail = f"p={check['p_value']:.3f}"
        elif "expected" in check and "value" in check:
            detail = f"value={check['value']:.4f} expected={check['expected']:.4f}"
        elif "value" in check:
            detail = f"value={check['value']:.4f}"
        status = "ok" if check["passed"] else "FAIL"
        print(f"   {status:>4}  {check['name']:<40} {detail}")
    print()
