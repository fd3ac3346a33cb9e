"""Planted defects that tier-1 must catch without the golden tests.

Each entry is (name, module, old, new): replacing the text `old`, which
occurs exactly once in the module's source, by `new` plants the defect.
`plant_defects.py` applies each one to a copy of the repository and runs
tier-1 there without `tests/test_golden.py`; an entry that passes is a
defect only byte hashes would have seen. pytest does not collect this file.
"""

DEFECTS = [
    ("friedman on means", "quasar_opt.harness",
     "[[_median(err[a]) for a in algorithms] for err in full]",
     "[[float(np.mean(err[a])) for a in algorithms] for err in full]"),
    ("runtime ratio by dim grouped by pop", "quasar_opt.harness",
     "runtime_ratio_by_dim[algo] = runtime_ratios(tc, tr, dims)[0]",
     "runtime_ratio_by_dim[algo] = runtime_ratios(tc, tr, pops)[0]"),
    ("overall runtime ratio as a ratio of means", "quasar_opt.stats",
     "paired_means.append(float(np.mean(tc[sel] / tr[sel])))",
     "paired_means.append(float(tc[sel].mean() / tr[sel].mean()))"),
    ("error floor flag with <=", "quasar_opt.harness",
     "any(np.any(v < ERROR_FLOOR) for v in err.values())",
     "any(np.any(v <= ERROR_FLOOR) for v in err.values())"),
    ("selection with an absolute tolerance", "quasar_opt.core",
     "accept = trial_fit < fitness[idx]",
     "accept = trial_fit < fitness[idx] - 1e-12"),
]
