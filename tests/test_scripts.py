import os
import runpy
import subprocess
import sys
from pathlib import Path

import polyg2p
from polyg2p.corpus import parse_lexicon

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = str(Path(polyg2p.__file__).resolve().parent.parent)


def test_make_synthetic_corpus_writes_parseable_lexicons(tmp_path):
    subprocess.run([sys.executable, str(SCRIPTS / "make_synthetic_corpus.py"),
                    "--out-dir", str(tmp_path)],
                   check=True, env=dict(os.environ, PYTHONPATH=SRC), capture_output=True)
    for name in ("bilingual.tsv", "memorize.tsv"):
        with open(tmp_path / name, encoding="utf-8") as fh:
            entries, rejects = parse_lexicon(fh)
        assert entries and not rejects, name


def test_langid_experiment_script_imports():
    # run_name other than __main__ checks the imports without training
    namespace = runpy.run_path(str(SCRIPTS / "run_langid_experiment.py"), run_name="not_main")
    assert callable(namespace["main"])
