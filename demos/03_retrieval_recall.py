# %% [markdown]
# # Nearest-neighbor retrieval with binary codes
#
# Builds a bit-packed index over learned codes, runs Hamming and asymmetric
# inner-product queries against exact ground truth, and writes the recall
# curve CSV.

# %%
import numpy as np

from genhash import (
    BinaryIndex,
    HashCode,
    TrainConfig,
    asymmetric_ip_search,
    encode_map_batch,
    knn_exact_l2,
    knn_hamming,
    recall_curve,
    synth_mixture,
    train,
)

full = synth_mixture(n=10_100, d=32, n_clusters=10, spread=1.0, seed=7)
mean = full.rows[:10_000].mean(axis=0)
db_rows = full.rows[:10_000] - mean
queries = full.rows[10_000:] - mean

params, _ = train(db_rows, TrainConfig(steps=10_000, bits=32, seed=3))
index = BinaryIndex(encode_map_batch(params, db_rows), params.l)
print(f"index: {len(index)} codes x {params.l} bits")

# %%
truth = [knn_exact_l2(db_rows, q, 10) for q in queries]
query_codes = encode_map_batch(params, queries)

hamming_report = recall_curve(
    query_codes,
    lambda q, n: knn_hamming(index, HashCode(q, params.l), n),
    truth,
    k=10,
    config={"method": "hamming", "bits": params.l},
)
asym_report = recall_curve(
    queries,
    lambda q, n: asymmetric_ip_search(index, params, q, n),
    truth,
    k=10,
    config={"method": "asymmetric", "bits": params.l},
)

print("\nRecall10@N (mean over 100 queries):")
print("      N:", "  ".join(f"{n:5d}" for n in hamming_report.n_grid))
print("hamming:", "  ".join(f"{r:5.3f}" for r in hamming_report.curve))
print("   asym:", "  ".join(f"{r:5.3f}" for r in asym_report.curve))

hamming_report.write_csv("recall_hamming.csv")
asym_report.write_csv("recall_asymmetric.csv")
print("\nwrote recall_hamming.csv and recall_asymmetric.csv")
