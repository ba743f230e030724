"""Golden bytes for the data path: the CSV reader, session indexing, the
train/test split, the CSV writer, the POP, S-POP and Item-KNN fits and
evaluation. None of these computes with BLAS, so the bytes are the same on
every machine.

``data/golden_clicks.csv`` has interleaved sessions, times out of order within
a session, equal times within a session, two sessions with equal start times
(listed in the file against their id order), a session over the default bot
length, one-event sessions and test items unknown to train.
"""

import hashlib
import pathlib

from sessrec.cli import main

GOLDEN_CSV = pathlib.Path(__file__).parent / "data" / "golden_clicks.csv"

# sha256 of each output
PREPARED = {
    "train.csv": "cf2ae5cc15a587124e1af9a54fa197555675548c85115b422680dca77afc119f",
    "test.csv": "8997e71ebad1fc1b0c3b705d6c459b6805d0a3946a5e83648c8f8c5b1876c914",
    "stdout": "674644e3d1d27f5a20faae4a656f2a7c048134721cf3dc62f3514c3d3dc0e0f4",
}
MODELS = {
    "pop": "4f597ba81e53f7b0e8d6a3c09858f813184ea5ec1757958fb27de1d366fa4c1f",
    "spop": "59df119d2eced5588cf9889dfd1dfd59b22427e5c9294b67f412ecb84e847f08",
    "itemknn": "ffd5f73852e432d02717ae1e2785713f0820833d0c1a3f98e0754bd247d84539",
}
EVALUATE_STDOUT = {
    "pop": "340ec67d8717aff5c9801ac32fd994e382d69468b8d13c8e637495a876b92f3a",
    "spop": "efde2b233f4dd1a1e42de5bde78b0fb4ad75bdf7c0c4fac656973d0ff79bad64",
    "itemknn": "051b67fe8383c1b17403e344775d04141187be941b447db1c1e23bf5148f305b",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_data_path_bytes_pinned(tmp_path, capsys):
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    assert main(["prepare", "--input", str(GOLDEN_CSV), "--out", str(train), str(test),
                 "--split-time", "1000000"]) == 0
    prepared = {"train.csv": sha256(train.read_bytes()), "test.csv": sha256(test.read_bytes()),
                "stdout": sha256(capsys.readouterr().out.encode())}
    models, evaluated = {}, {}
    for kind in MODELS:
        model = tmp_path / f"{kind}.model"
        assert main(["baseline", "--kind", kind, "--data", str(train), "--model", str(model),
                     "--knn-k", "5", "--knn-lambda", "2.0"]) == 0
        capsys.readouterr()
        models[kind] = sha256(model.read_bytes())
        assert main(["evaluate", "--model", str(model), "--test", str(test),
                     "--cutoff", "5"]) == 0
        evaluated[kind] = sha256(capsys.readouterr().out.encode())
    assert prepared == PREPARED
    assert models == MODELS
    assert evaluated == EVALUATE_STDOUT
