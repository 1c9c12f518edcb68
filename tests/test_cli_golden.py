"""Exact CLI output of bounds, detect, classify, gen, three verify suites
and two sweeps, pinned byte for byte.

Every case runs ``cli.main`` in process and compares the exit code and the
whole stdout with the text recorded in ``EXPECTED`` (generated files are
pinned by their SHA-256, sweeps by their CSV). Any change to the (model, detector) dispatch,
policy parsing, bound selection or special function that alters a printed
digit fails here.
"""

import hashlib

import pytest

from circlab import cli

DATASETS = {
    "flat_hard": ["--model", "flat-hard", "--N", "200", "--K", "8",
                  "--tau", "0.02", "--h1", "--seed", "3"],
    "flat_vm": ["--model", "flat-vm", "--N", "100", "--K", "20",
                "--kappa", "5", "--h1", "--seed", "4", "--reveal-truth"],
    "comm_vm": ["--model", "comm-vm", "--n", "8", "--k", "4",
                "--kappa", "8", "--h1", "--seed", "5"],
    "comm_hard": ["--model", "comm-hard", "--n", "10", "--k", "4",
                  "--tau", "0.1", "--seed", "6"],
}

BOUNDS = {
    "flat_hard_interval": ["--model", "flat-hard", "--N", "200", "--K", "8",
                           "--tau", "0.01"],
    "flat_hard_interval_gamma": ["--model", "flat-hard", "--N", "200",
                                 "--K", "8", "--tau", "0.01",
                                 "--gamma", "12.5"],
    "flat_hard_known_theta": ["--model", "flat-hard", "--detector",
                              "known-theta", "--N", "400", "--K", "40",
                              "--tau", "0.05"],
    "flat_hard_known_theta_c_n": ["--model", "flat-hard", "--detector",
                                  "known-theta", "--N", "400", "--K", "40",
                                  "--tau", "0.05", "--c-n", "1.5"],
    "flat_hard_known_theta_gamma": ["--model", "flat-hard", "--detector",
                                    "known-theta", "--N", "400", "--K", "40",
                                    "--tau", "0.05", "--gamma", "30"],
    "flat_vm_interval": ["--model", "flat-vm", "--N", "60", "--K", "5",
                         "--kappa", "5", "--tau", "0.2"],
    "flat_vm_interval_c_n": ["--model", "flat-vm", "--N", "60", "--K", "5",
                             "--kappa", "5", "--tau", "0.2", "--c-n", "2"],
    "flat_vm_interval_gamma": ["--model", "flat-vm", "--N", "60", "--K", "5",
                               "--kappa", "5", "--tau", "0.2",
                               "--gamma", "17.25"],
    "comm_hard_interval": ["--model", "comm-hard", "--n", "16", "--k", "5",
                           "--tau", "0.05"],
    "comm_hard_variance": ["--model", "comm-hard", "--detector", "variance",
                           "--n", "10", "--k", "6", "--tau", "0.02",
                           "--sigma2", "0.05"],
    "comm_vm_interval": ["--model", "comm-vm", "--n", "16", "--k", "5",
                         "--kappa", "40", "--tau", "0.1"],
    "comm_vm_coherence": ["--model", "comm-vm", "--detector", "coherence",
                          "--n", "12", "--k", "10", "--kappa", "20"],
    "comm_vm_coherence_epsilon": ["--model", "comm-vm", "--detector",
                                  "coherence", "--n", "12", "--k", "10",
                                  "--kappa", "20", "--epsilon", "0.3"],
    "comm_vm_rayleigh": ["--model", "comm-vm", "--detector", "rayleigh",
                         "--n", "12", "--k", "10", "--kappa", "20"],
    "comm_vm_variance": ["--model", "comm-vm", "--detector", "variance",
                         "--n", "10", "--k", "6", "--kappa", "30",
                         "--sigma2", "0.05"],
    "missing_tau": ["--model", "flat-hard", "--N", "200", "--K", "8"],
    "missing_sigma2": ["--model", "comm-vm", "--detector", "variance",
                       "--n", "10", "--k", "6", "--kappa", "30"],
}

DETECT = {
    "flat_a1": ("flat_hard", ["--test", "interval", "--tau", "0.02",
                              "--policy", "a1"]),
    "flat_default_policy": ("flat_hard", ["--test", "interval",
                                          "--tau", "0.02"]),
    "flat_a2": ("flat_hard", ["--test", "interval", "--tau", "0.02",
                              "--policy", "a2"]),
    "flat_fixed": ("flat_hard", ["--test", "interval", "--tau", "0.02",
                                 "--policy", "fixed:9.5"]),
    "flat_custom": ("flat_hard", ["--test", "interval", "--tau", "0.02",
                                  "--policy", "custom:9.5"]),
    "flat_gamma": ("flat_hard", ["--test", "interval", "--tau", "0.02",
                                 "--gamma", "9"]),
    "flat_k_flag": ("flat_hard", ["--test", "interval", "--tau", "0.02",
                                  "--k", "3"]),
    "flat_known_theta": ("flat_hard", ["--test", "known-theta",
                                       "--tau", "0.02", "--gamma", "10",
                                       "--theta", "1.25"]),
    "flat_vm_policy": ("flat_vm", ["--test", "interval", "--tau", "0.2",
                                   "--policy", "vm", "--kappa", "5"]),
    "flat_vm_known_theta": ("flat_vm", ["--test", "known-theta",
                                        "--tau", "0.2", "--gamma", "30"]),
    "comm_interval": ("comm_vm", ["--test", "interval", "--tau", "0.15"]),
    "comm_interval_k": ("comm_hard", ["--test", "interval", "--tau", "0.1",
                                      "--k", "3"]),
    "comm_coherence": ("comm_vm", ["--test", "coherence", "--kappa", "8"]),
    "comm_coherence_epsilon": ("comm_vm", ["--test", "coherence",
                                           "--kappa", "8",
                                           "--epsilon", "0.25"]),
    "comm_rayleigh": ("comm_vm", ["--test", "rayleigh", "--kappa", "8"]),
    "comm_variance": ("comm_vm", ["--test", "variance", "--sigma2", "0.3"]),
    "comm_missing_kappa": ("comm_vm", ["--test", "coherence"]),
    "flat_missing_tau": ("flat_hard", ["--test", "interval"]),
}

CLASSIFY = {
    "flat_hard": ["--model", "flat-hard", "--N", "2000", "--K", "21",
                  "--tau", "0.005"],
    "flat_vm": ["--model", "flat-vm", "--N", "500", "--K", "100",
                "--kappa", "5"],
    "comm_hard": ["--model", "comm-hard", "--n", "16", "--k", "5",
                  "--tau", "0.05"],
    "comm_vm": ["--model", "comm-vm", "--n", "16", "--k", "8",
                "--kappa", "2.0"],
    "comm_vm_tunables": ["--model", "comm-vm", "--n", "16", "--k", "8",
                         "--kappa", "2.0", "--eps", "0.2", "--slack", "3"],
    "missing_kappa": ["--model", "flat-vm", "--N", "500", "--K", "100"],
}

# Sweeps whose cells decide Monte Carlo trials without the statistic: the
# config lines, and the CSV at --threads 1 and 2.
SWEEPS = {
    "comm_vm_coherence": [
        "model = comm-vm", "detector = coherence", "n = 12", "k = 6",
        "epsilon = 0.5", "trials = 150", "seed = 11",
        "sweep_kappa = 1, 2, 3, 4"],
    "comm_hard_variance": [
        "model = comm-hard", "detector = variance", "n = 10", "k = 5",
        "tau = 0.05", "trials = 150", "seed = 12",
        "sweep_sigma2 = 0.01, 0.02, 0.2, 0.4, 0.6"],
}

# (exit code, stdout) per case; gen cases hold the file's SHA-256 instead.
EXPECTED = {
    "bounds/comm_hard_interval": (0, (
        "pfa=9.7264047949464733e-07 applicable=true\n"
        "pmiss=0 applicable=true\n"
        "impossibility_var_upper=623.43749999999977 applicable=true\n"
        "impossibility_var_exact=21323558.653661788 applicable=true\n"
        "impossibility_tv_bound=2308.8719460843745 applicable=true\n")),
    "bounds/comm_hard_variance": (0, (
        "pfa=0.0083438119464988147 applicable=true\n"
        "pmiss=0.99936678296783121 applicable=true\n"
        "impossibility_var_upper=63636.010306789198 applicable=true\n"
        "impossibility_var_exact=3.6330454207255033e+20 applicable=true\n"
        "impossibility_tv_bound=9530274682.1976528 applicable=true\n")),
    "bounds/comm_vm_coherence": (0, (
        "pfa=8.0370484381093158e-07 applicable=true\n"
        "pmiss=0.71606935123633664 applicable=true\n"
        "impossibility_var_upper=88673.519597601669 applicable=true\n"
        "impossibility_var_exact=5.3419622036675183e+36 applicable=true\n"
        "impossibility_tv_bound=1.1556342634747725e+18 applicable=true\n")),
    "bounds/comm_vm_coherence_epsilon": (0, (
        "pfa=3.0121691959818495e-08 applicable=true\n"
        "pmiss=0.88671454192524257 applicable=true\n"
        "impossibility_var_upper=88673.519597601669 applicable=true\n"
        "impossibility_var_exact=5.3419622036675183e+36 applicable=true\n"
        "impossibility_tv_bound=1.1556342634747725e+18 applicable=true\n")),
    "bounds/comm_vm_interval": (0, (
        "pfa=0.00049799192550126063 applicable=true\n"
        "pmiss=0.48561122808059243 applicable=true\n"
        "pmiss_asymptotic=0.091440342186519349 applicable=false\n"
        "impossibility_var_upper=192.92749979290102 applicable=true\n"
        "impossibility_var_exact=194509.0889321556 applicable=true\n"
        "impossibility_tv_bound=220.51592285601259 applicable=true\n")),
    "bounds/comm_vm_rayleigh": (0, (
        "pfa=0.10465303689287597 applicable=true\n"
        "total_default=0.13081629611609497 applicable=true\n"
        "pmiss=0.026163259223218993 applicable=true\n"
        "impossibility_var_upper=88673.519597601669 applicable=true\n"
        "impossibility_var_exact=5.3419622036675183e+36 applicable=true\n"
        "impossibility_tv_bound=1.1556342634747725e+18 applicable=true\n")),
    "bounds/comm_vm_variance": (0, (
        "pfa=0.0083438119464988147 applicable=true\n"
        "pmiss=0.99994988387404093 applicable=true\n"
        "impossibility_var_upper=1036.8433025215631 applicable=true\n"
        "impossibility_var_exact=74154106955.217804 applicable=true\n"
        "impossibility_tv_bound=136156.25853703698 applicable=true\n")),
    "bounds/flat_hard_interval": (0, (
        "gamma=8\n"
        "pfa_union=4.4079196941782319 applicable=true\n"
        "pfa_chernoff=20.377142721998517 applicable=true\n"
        "pmiss=0 applicable=true\n"
        "impossibility_var_upper=1220.7031249999993 applicable=true\n"
        "impossibility_var_exact=113.84931908787453 applicable=true\n"
        "impossibility_tv_bound=5.3350098192944904 applicable=true\n")),
    "bounds/flat_hard_interval_gamma": (0, (
        "gamma=12.5\n"
        "pfa_union=0.0011482464103825573 applicable=true\n"
        "pfa_chernoff=0.58257657602296009 applicable=true\n"
        "pmiss=inf applicable=false\n"
        "impossibility_var_upper=1220.7031249999993 applicable=true\n"
        "impossibility_var_exact=113.84931908787453 applicable=true\n"
        "impossibility_tv_bound=5.3350098192944904 applicable=true\n")),
    "bounds/flat_hard_known_theta": (0, (
        "pfa_union=0.045300042977545772 applicable=true\n"
        "pfa_chernoff=2.7872737749221655e-06 applicable=true\n"
        "pmiss=0.29408882972998657 applicable=true\n"
        "impossibility_var_upper=45591245471463264 applicable=true\n"
        "impossibility_var_exact=7723233197997.9775 applicable=true\n"
        "impossibility_tv_bound=1389535.2818476739 applicable=true\n")),
    "bounds/flat_hard_known_theta_c_n": (0, (
        "pfa_union=0.045300042977545772 applicable=true\n"
        "pfa_chernoff=2.3230118718972768e-06 applicable=true\n"
        "pmiss=0.32465246735834952 applicable=true\n"
        "impossibility_var_upper=45591245471463264 applicable=true\n"
        "impossibility_var_exact=7723233197997.9775 applicable=true\n"
        "impossibility_tv_bound=1389535.2818476739 applicable=true\n")),
    "bounds/flat_hard_known_theta_gamma": (0, (
        "pfa_union=1990569.2051610127 applicable=true\n"
        "pfa_chernoff=0.20038648339858323 applicable=true\n"
        "pmiss=0 applicable=true\n"
        "impossibility_var_upper=45591245471463264 applicable=true\n"
        "impossibility_var_exact=7723233197997.9775 applicable=true\n"
        "impossibility_tv_bound=1389535.2818476739 applicable=true\n")),
    "bounds/flat_vm_interval": (0, (
        "g=3.1003677724451162 applicable=true\n"
        "gamma=9.5727263909203906 applicable=true\n"
        "pmiss=0.36359148330701124 applicable=true\n"
        "pfa_chernoff=inf applicable=false\n"
        "impossibility_exponent=-0.16914517784832617 applicable=true\n"
        "impossibility_var_exact=0.10064142067577153 applicable=true\n"
        "impossibility_tv_bound=0.15862016003315241 applicable=true\n")),
    "bounds/flat_vm_interval_c_n": (0, (
        "g=3.1003677724451162 applicable=true\n"
        "gamma=7.3285294384484247 applicable=true\n"
        "pmiss=0.1353352832366127 applicable=true\n"
        "pfa_chernoff=inf applicable=false\n"
        "impossibility_exponent=-0.16914517784832617 applicable=true\n"
        "impossibility_var_exact=0.10064142067577153 applicable=true\n"
        "impossibility_tv_bound=0.15862016003315241 applicable=true\n")),
    "bounds/flat_vm_interval_gamma": (0, (
        "g=3.1003677724451162 applicable=true\n"
        "gamma=17.25 applicable=true\n"
        "pmiss=inf applicable=false\n"
        "pfa_chernoff=31.042571520600447 applicable=true\n"
        "impossibility_exponent=-0.16914517784832617 applicable=true\n"
        "impossibility_var_exact=0.10064142067577153 applicable=true\n"
        "impossibility_tv_bound=0.15862016003315241 applicable=true\n")),
    "bounds/missing_sigma2": (2, ""),
    "bounds/missing_tau": (2, ""),
    "classify/comm_hard": (0, (
        "also_fired=['comm-hard/achievable/general-window']\n"
        "comm-hard/achievable/general-window=-0.21662142919777294\n"
        "comm-hard/achievable/log-K-window=-0.27987697769322362\n"
        "comm-hard/achievable/poly-window=gate-closed\n"
        "comm-hard/achievable/wide-window-large-K=0.23973294539312445\n"
        "comm-hard/impossible/log-K-window=0.31286467546254598\n"
        "comm-hard/impossible/small-K=gate-closed\n"
        "comm-hard/impossible/wide-window-large-K=0.85653962652828941\n"
        "eps=0.10000000000000001\n"
        "slack_const=2.7725887222397811\n"
        "slack_growth=1.0197814405382262\n"
        "citation=comm-hard/achievable/log-K-window\n"
        "verdict=achievable\n")),
    "classify/comm_vm": (0, (
        "also_fired=[]\n"
        "comm-vm/achievable/large-K-coherence=-0.041915701826287455\n"
        "comm-vm/achievable/log-K-coherence=0.59513394282736787\n"
        "comm-vm/achievable/log-K-interval=2.1588830833596724\n"
        "comm-vm/achievable/small-K-interval=gate-closed\n"
        "comm-vm/impossible/large-K-diffuse=gate-closed\n"
        "comm-vm/impossible/log-K-diffuse=0.2419068686736181\n"
        "comm-vm/impossible/small-K-diffuse=gate-closed\n"
        "eps=0.10000000000000001\n"
        "slack_const=2.7725887222397811\n"
        "slack_growth=1.0197814405382262\n"
        "citation=comm-vm/achievable/large-K-coherence\n"
        "verdict=achievable\n")),
    "classify/comm_vm_tunables": (0, (
        "comm-vm/achievable/large-K-coherence=gate-closed\n"
        "comm-vm/achievable/log-K-coherence=0.59513394282736787\n"
        "comm-vm/achievable/log-K-interval=2.1588830833596724\n"
        "comm-vm/achievable/small-K-interval=gate-closed\n"
        "comm-vm/impossible/large-K-diffuse=gate-closed\n"
        "comm-vm/impossible/log-K-diffuse=0.2419068686736181\n"
        "comm-vm/impossible/small-K-diffuse=gate-closed\n"
        "eps=0.20000000000000001\n"
        "slack_const=3\n"
        "slack_growth=3\n"
        "citation=none\n"
        "verdict=indeterminate\n")),
    "classify/flat_hard": (0, (
        "also_fired=[]\n"
        "eps=0.10000000000000001\n"
        "flat-hard/achievable/large-K-any-window=gate-closed\n"
        "flat-hard/achievable/mid-K-log-window=-0.0088141491170149466\n"
        "flat-hard/achievable/small-K-tiny-window=gate-closed\n"
        "flat-hard/impossible/mid-K-wide-window=0.14084707072918984\n"
        "flat-hard/impossible/small-K-wide-window=gate-closed\n"
        "slack_const=7.6009024595420822\n"
        "slack_growth=2.0282669849192843\n"
        "citation=flat-hard/achievable/mid-K-log-window\n"
        "verdict=achievable\n")),
    "classify/flat_vm": (0, (
        "also_fired=[]\n"
        "c0_reference=0.50570000000000004\n"
        "eps=0.10000000000000001\n"
        "flat-vm/achievable/large-K-any-concentration=-4.9000000000000004\n"
        "flat-vm/achievable/mid-K-concentrated=gate-closed\n"
        "flat-vm/impossible/mid-K-diffuse=gate-closed\n"
        "slack_const=6.2146080984221914\n"
        "slack_growth=1.8269026656007323\n"
        "citation=flat-vm/achievable/large-K-any-concentration\n"
        "verdict=achievable\n")),
    "classify/missing_kappa": (2, ""),
    "detect/comm_coherence": (0, (
        "statistic=5.6482964006859282 "
        "threshold=4.9099863410295539 "
        "decision=reject "
        "witness_theta=none "
        "witness_subset=2,3,4,7\n")),
    "detect/comm_coherence_epsilon": (0, (
        "statistic=5.6482964006859282 "
        "threshold=5.2606996511030939 "
        "decision=reject "
        "witness_theta=none "
        "witness_subset=2,3,4,7\n")),
    "detect/comm_interval": (0, (
        "statistic=0 "
        "threshold=1 "
        "decision=retain "
        "witness_theta=none "
        "witness_subset=none\n")),
    "detect/comm_interval_k": (0, (
        "statistic=1 "
        "threshold=1 "
        "decision=reject "
        "witness_theta=0.80215227705079417 "
        "witness_subset=0,1,6\n")),
    "detect/comm_missing_kappa": (2, ""),
    "detect/comm_rayleigh": (0, (
        "statistic=13.382147785562713 "
        "threshold=2.8057064805883165 "
        "decision=reject "
        "witness_theta=0.8110203547162067 "
        "witness_subset=none\n")),
    "detect/comm_variance": (0, (
        "statistic=0.14337704886393698 "
        "threshold=0.29999999999999999 "
        "decision=reject "
        "witness_theta=none "
        "witness_subset=2,3,4,7\n")),
    "detect/flat_a1": (0, (
        "statistic=12 "
        "threshold=8 "
        "decision=reject "
        "witness_theta=5.0415813822005484 "
        "witness_subset=none\n")),
    "detect/flat_a2": (0, (
        "statistic=12 "
        "threshold=8.866964435812239 "
        "decision=reject "
        "witness_theta=5.0415813822005484 "
        "witness_subset=none\n")),
    "detect/flat_custom": (0, (
        "statistic=12 "
        "threshold=9.5 "
        "decision=reject "
        "witness_theta=5.0415813822005484 "
        "witness_subset=none\n")),
    "detect/flat_default_policy": (0, (
        "statistic=12 "
        "threshold=8 "
        "decision=reject "
        "witness_theta=5.0415813822005484 "
        "witness_subset=none\n")),
    "detect/flat_fixed": (0, (
        "statistic=12 "
        "threshold=9.5 "
        "decision=reject "
        "witness_theta=5.0415813822005484 "
        "witness_subset=none\n")),
    "detect/flat_gamma": (0, (
        "statistic=12 "
        "threshold=9 "
        "decision=reject "
        "witness_theta=5.0415813822005484 "
        "witness_subset=none\n")),
    "detect/flat_k_flag": (0, (
        "statistic=12 "
        "threshold=3 "
        "decision=reject "
        "witness_theta=5.0415813822005484 "
        "witness_subset=none\n")),
    "detect/flat_known_theta": (0, (
        "statistic=5 "
        "threshold=10 "
        "decision=retain "
        "witness_theta=1.25 "
        "witness_subset=none\n")),
    "detect/flat_missing_tau": (2, ""),
    "detect/flat_vm_known_theta": (0, (
        "statistic=14 "
        "threshold=30 "
        "decision=retain "
        "witness_theta=0 "
        "witness_subset=none\n")),
    "detect/flat_vm_policy": (0, (
        "statistic=35 "
        "threshold=24.062858725575893 "
        "decision=reject "
        "witness_theta=4.2144442979453149 "
        "witness_subset=none\n")),
    "verify/specfun": (0, (
        "rho_mean_one_err_kappa_0.1=4.4408920985006262e-16 [ok]\n"
        "rho_mean_one_err_kappa_1=2.2204460492503131e-16 [ok]\n"
        "rho_mean_one_err_kappa_5=2.2204460492503131e-16 [ok]\n"
        "rho_mean_one_err_kappa_20=2.7755575615628914e-15 [ok]\n"
        "rho_mean_one_err_kappa_100=1.7763568394002505e-14 [ok]\n"
        "i0_crossover_rel_err=1.6653345369377348e-15 [ok]\n"
        "i1_crossover_rel_err=2.1094237467877974e-15 [ok]\n"
        "i0_upper_exp_quarter_sq=all-hold [ok]\n"
        "i0_lower_scaled_min=0.39904212840852343 [ok]\n"
        "mean_resultant_small_kappa_err=6.2498958351524248e-08 [ok]\n"
        "A_R_monotone=yes [ok]\n"
        "c0_objective_sign_changes=1 [ok]\n"
        "c0_first_order_condition=3.3306690738754696e-10 [ok]\n"
        "c0_computed=1.2676980469105776 [ok]\n"
        "c2_star_computed=1.3999852773437527 [ok]\n"
        "c0_reference=0.50570000000000004 [ok]\n"
        "c2_star_reference=0.75180000000000002 [ok]\n"
        "c0_matches_reference=no [ok]\n"
        "c0_discrepancy_recorded=objective-as-displayed minimizes to "
        "(1.267698;1.399985) not (0.5057;0.7518) [ok]\n"
        "suite=specfun passed=true\n"
        "verify=pass\n")),
    "verify/overlap": (0, (
        "convex_order_violations=0 [ok]\n"
        "convex_order_worst_rel_slack=3.6415315207705135e-14 [ok]\n"
        "delta_moment_quadrature_err=2.2204460492503131e-16 [ok]\n"
        "hypergeom_pmf_sum_err=2.2204460492503131e-16 [ok]\n"
        "second_moment_identity=holds [ok]\n"
        "half_circle_ratio_closed_form=holds [ok]\n"
        "suite=overlap passed=true\n"
        "verify=pass\n")),
    "verify/transitions": (0, (
        "flat_hard_easy_total_err=0.034000000000000002 [ok]\n"
        "flat_hard_hard_total_err=1 [ok]\n"
        "flat_hard_hard_var_exact=0.0035720374577730141 [ok]\n"
        "flat_hard_hard_consistent_with_impossibility=yes [ok]\n"
        "comm_vm_coherence_strong_total_err=0.10000000000000001 [ok]\n"
        "comm_vm_coherence_weak_total_err=1 [ok]\n"
        "comm_vm_rayleigh_total_err=0.51400000000000001 [ok]\n"
        "known_theta_easy_total_err=0.037999999999999999 [ok]\n"
        "known_theta_hard_total_err=1 [ok]\n"
        "suite=transitions passed=true\n"
        "verify=pass\n")),
    "sweep/comm_hard_variance": (
        "model,detector,policy,N_or_n,K_or_k,tau,kappa,trials,pfa_hat,"
        "pfa_lo,pfa_hi,pmiss_hat,pmiss_lo,pmiss_hi,total_err,verdict,"
        "verdict_citation,bound_pfa,bound_pmiss,seed,cell_index\n"
        "comm-hard,variance,a1,10,5,0.050000000000000003,,150,0,0,"
        "0.0249702443680766,0.22666666666666666,0.16698179426848411,"
        "0.30000193931939778,0.22666666666666666,achievable,"
        "comm-hard/achievable/log-K-window,0.42740795823961342,"
        "0.99999987657495881,12,0\n"
        "comm-hard,variance,a1,10,5,0.050000000000000003,,150,0,0,"
        "0.0249702443680766,0,0,0.0249702443680766,0,achievable,"
        "comm-hard/achievable/log-K-window,0.46129614527211743,"
        "0.99998038044875204,12,1\n"
        "comm-hard,variance,a1,10,5,0.050000000000000003,,150,0,0,"
        "0.0249702443680766,0,0,0.0249702443680766,0,achievable,"
        "comm-hard/achievable/log-K-window,1.7170281929817344,"
        "0.99395999631826648,12,2\n"
        "comm-hard,variance,a1,10,5,0.050000000000000003,,150,"
        "0.033333333333333333,0.01432043189809255,0.075651796178778943,0,0,"
        "0.0249702443680766,0.033333333333333333,achievable,"
        "comm-hard/achievable/log-K-window,6.4855565216608753,"
        "0.97491259253080964,12,3\n"
        "comm-hard,variance,a1,10,5,0.050000000000000003,,150,"
        "0.18666666666666668,0.13242415483319162,0.25655719830413648,0,0,"
        "0.0249702443680766,0.18666666666666668,achievable,"
        "comm-hard/achievable/log-K-window,21.333628077303029,"
        "0.94359208828306296,12,4\n"),
    "sweep/comm_vm_coherence": (
        "model,detector,policy,N_or_n,K_or_k,tau,kappa,trials,pfa_hat,"
        "pfa_lo,pfa_hi,pmiss_hat,pmiss_lo,pmiss_hi,total_err,verdict,"
        "verdict_citation,bound_pfa,bound_pmiss,seed,cell_index\n"
        "comm-vm,coherence,a1,12,6,,1,150,1,0.97502975563192351,1,0,0,"
        "0.0249702443680766,1,impossible,comm-vm/impossible/log-K-diffuse,"
        "29290.948572834001,0.97691928041518439,11,0\n"
        "comm-vm,coherence,a1,12,6,,2,150,0.51333333333333331,"
        "0.43401791270739321,0.5919828807761246,0.046666666666666669,"
        "0.022786549161261972,0.093186472399127473,0.55999999999999994,"
        "impossible,comm-vm/impossible/log-K-diffuse,1746.863738853318,"
        "0.94453988886107287,11,1\n"
        "comm-vm,coherence,a1,12,6,,3,150,0.11333333333333333,"
        "0.071974239140374097,0.17400274983760514,0.02,"
        "0.0068247513229674588,0.057146683270386078,0.13333333333333333,"
        "achievable,comm-vm/achievable/large-K-coherence,"
        "332.65970054211721,0.92599733072648749,11,2\n"
        "comm-vm,coherence,a1,12,6,,4,150,0.013333333333333334,"
        "0.0036641291512270503,0.047306908700367509,0.0066666666666666671,"
        "0.0011778013350174366,0.036792839774818148,0.02,achievable,"
        "comm-vm/achievable/large-K-coherence,138.22204474879612,"
        "0.91632574983171355,11,3\n"),
    "gen/comm_hard":
        "08463817a14106ab07b860938628879856403286d018ec017c54305527ff7e9c",
    "gen/comm_vm":
        "d2df87ee2dc7a8cfd37379aa163013bee96636bf0589d0d8fff32afb6576ad1a",
    "gen/flat_hard":
        "00f193dac73a7796c77eafb05e2bb7742075b3da357da62bb3f10fe76b67a642",
    "gen/flat_vm":
        "1d853191661c9c42d875254655bae741f101066958ca922c931b0f58628c1d97",
}


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    for name, flags in DATASETS.items():
        assert cli.main(["gen", *flags, "--out", str(root / f"{name}.txt")]) == 0
    return root


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_gen(name, data_dir):
    digest = hashlib.sha256((data_dir / f"{name}.txt").read_bytes()).hexdigest()
    assert digest == EXPECTED[f"gen/{name}"]


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_bounds(name, capsys):
    assert run(capsys, ["bounds", *BOUNDS[name]]) == EXPECTED[f"bounds/{name}"]


@pytest.mark.parametrize("name", sorted(DETECT))
def test_detect(name, capsys, data_dir):
    dataset, flags = DETECT[name]
    argv = ["detect", "--data", str(data_dir / f"{dataset}.txt"), *flags]
    assert run(capsys, argv) == EXPECTED[f"detect/{name}"]


@pytest.mark.parametrize("name", sorted(CLASSIFY))
def test_classify(name, capsys):
    assert run(capsys, ["classify", *CLASSIFY[name]]) == \
        EXPECTED[f"classify/{name}"]


@pytest.mark.parametrize("suite", ["specfun", "overlap", "transitions"])
def test_verify(suite, capsys):
    assert run(capsys, ["verify", suite, "--seed", "1"]) == \
        EXPECTED[f"verify/{suite}"]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep(name, threads, tmp_path, capsys):
    config, out = tmp_path / f"{name}.cfg", tmp_path / f"{name}.csv"
    config.write_text("\n".join(SWEEPS[name]) + "\n", encoding="utf-8")
    assert cli.main(["sweep", "--config", str(config), "--threads", threads,
                     "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == EXPECTED[f"sweep/{name}"]
