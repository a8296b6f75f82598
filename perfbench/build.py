"""Build file of the benchmark: compiles the program (src/main/scala, jobs)
and the benchmark's own sources (perfbench/src) with the Scala compiler
that ships with Spark, into .bench_build/perfbench/classes.

    python3 perfbench/build.py

The build is skipped when no source changed since the last one. Spark is
found through SPARK_HOME, or else through `spark-submit` on the PATH.
"""
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
CLASSES = os.path.join(OUT, "classes")
SOURCE_DIRS = ["src/main/scala", "jobs", "perfbench/src"]


class BuildError(Exception):
    pass


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not home or not os.path.isdir(jars):
        raise BuildError("Spark not found: set SPARK_HOME or put spark-submit on the PATH")
    return jars


def java():
    home = os.environ.get("JAVA_HOME")
    return os.path.join(home, "bin", "java") if home else "java"


def sources():
    found = []
    for d in SOURCE_DIRS:
        for base, _, files in os.walk(os.path.join(ROOT, d)):
            found += [os.path.join(base, f) for f in files if f.endswith(".scala")]
    return sorted(found)


def classpath():
    return CLASSES + os.pathsep + os.path.join(spark_jars(), "*")


def build():
    """Compile if needed; return the runtime classpath."""
    srcs = sources()
    if not any(s.startswith(os.path.join(ROOT, "src")) for s in srcs):
        raise BuildError("no program sources under src/main/scala")
    h = hashlib.sha256(spark_jars().encode())
    for s in srcs:
        h.update(s.encode())
        with open(s, "rb") as f:
            h.update(f.read())
    stamp = os.path.join(OUT, "stamp")
    if os.path.exists(stamp) and open(stamp).read() == h.hexdigest():
        return classpath()
    tmp = CLASSES + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    argfile = os.path.join(OUT, "sources.txt")
    with open(argfile, "w") as f:
        f.write("\n".join(srcs))
    jars = os.path.join(spark_jars(), "*")
    cmd = [java(), "-Xmx1g", "-cp", jars, "scala.tools.nsc.Main", "-nowarn",
           "-d", tmp, "-classpath", jars, "@" + argfile]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if res.returncode != 0:
        raise BuildError("compilation failed:\n" + res.stdout[-4000:])
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.rename(tmp, CLASSES)
    with open(stamp, "w") as f:
        f.write(h.hexdigest())
    return classpath()


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(e, file=sys.stderr)
        sys.exit(2)
