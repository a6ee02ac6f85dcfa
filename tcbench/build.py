"""Build definition of the benchmark.

Compiles the program's main sources (src/main/scala) together with the
benchmark's own sources (tcbench/src) with the Scala compiler that ships in
the Spark distribution, against Spark's jars: the same classpath the root
build takes from Spark's `jars/` directory. Classes go to
.bench_build/classes and are rebuilt only when a source changes.

    python3 tcbench/build.py
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "tcbench"
PROGRAM_SOURCES = ROOT / "src" / "main" / "scala"
BUILD_DIR = ROOT / ".bench_build"
CLASSES = BUILD_DIR / "classes"
COMPILE_TIMEOUT_S = 600


class BuildError(Exception):
    pass


def spark_jars() -> Path:
    """Spark's jar directory: $SPARK_HOME/jars, else next to spark-submit."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit is None:
            raise BuildError("Spark not found: set SPARK_HOME or put spark-submit on PATH")
        home = str(Path(submit).resolve().parent.parent)
    jars = Path(home) / "jars"
    if not any(jars.glob("scala-compiler-*.jar")):
        raise BuildError(f"no Scala compiler among Spark's jars in {jars}")
    return jars


def sources() -> list:
    if not PROGRAM_SOURCES.is_dir():
        raise BuildError(f"program sources not found: {PROGRAM_SOURCES.relative_to(ROOT)}")
    files = sorted(PROGRAM_SOURCES.rglob("*.scala")) + sorted((BENCH / "src").rglob("*.scala"))
    if not files:
        raise BuildError("no Scala sources")
    return files


def digest(files: list, jars: Path) -> str:
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    for j in sorted(p.name for p in jars.glob("*.jar")):
        h.update(j.encode())
    return h.hexdigest()[:16]


def build() -> tuple:
    """Compiles if needed; returns (class directory, Spark jar directory, digest)."""
    jars = spark_jars()
    files = sources()
    stamp = digest(files, jars)
    stamp_file = CLASSES / ".digest"
    if stamp_file.is_file() and stamp_file.read_text() == stamp:
        return CLASSES, jars, stamp

    tmp = BUILD_DIR / "classes.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    argfile = BUILD_DIR / "sources.txt"
    argfile.write_text("\n".join(str(f) for f in files) + "\n")
    cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", f"{jars}/*",
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", str(tmp), f"@{argfile}"]
    print(f"tcbench: compiling {len(files)} sources", file=sys.stderr)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=COMPILE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BuildError(f"compilation took longer than {COMPILE_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BuildError("compilation failed:\n" + proc.stdout)
    (tmp / ".digest").write_text(stamp)
    shutil.rmtree(CLASSES, ignore_errors=True)
    tmp.rename(CLASSES)
    return CLASSES, jars, stamp


if __name__ == "__main__":
    try:
        print(build()[0])
    except BuildError as e:
        print(f"tcbench: {e}", file=sys.stderr)
        sys.exit(2)
