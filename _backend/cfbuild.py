"""A stdlib-only PEP 517 / PEP 660 build backend for this project.

It reads the ``[project]`` table of ``pyproject.toml`` and packs the
Python sources under ``src/`` into a pure-Python ``py3-none-any`` wheel,
an editable wheel whose ``.pth`` file points at ``src/``, or an sdist.
It needs nothing beyond the standard library on Python 3.11+; on 3.10,
which has no ``tomllib``, it asks the frontend for ``tomli``.

``pyproject.toml`` selects it with ``build-backend = "cfbuild"`` and
``backend-path = ["_backend"]``, so ``pip install . --no-build-isolation``
works offline with no setuptools or wheel installed.
"""

import base64
import hashlib
import io
import re
import sys
import tarfile
import time
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TAG = "py3-none-any"
SUPPORTED_KEYS = {
    "name", "version", "description", "readme", "requires-python",
    "dependencies", "optional-dependencies", "scripts",
}
SDIST_MEMBERS = ("pyproject.toml", "README.md", "_backend", "src")


def _tomllib():
    # Imported on first use, so that on 3.10 without tomli the frontend can
    # still import this module and ask get_requires_for_build_* for it.
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        import tomli as tomllib
    return tomllib


def _project():
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = _tomllib().load(f)["project"]
    unknown = sorted(set(project) - SUPPORTED_KEYS)
    if unknown:
        raise ValueError(f"cfbuild does not support [project] keys: {', '.join(unknown)}")
    return project


def _file_name(project):
    """The project name as it appears in file names (PEP 427, PEP 625)."""
    return re.sub(r"[-_.]+", "_", project["name"]).lower()


def _dist_name(project):
    return f"{_file_name(project)}-{project['version']}"


def _with_extra(dep, extra):
    """`dep` with the marker `extra == "<extra>"`, joined with the
    dependency's own marker, if it has one, by `and`."""
    requirement, _, marker = dep.partition(";")
    own = f"({marker.strip()}) and " if marker.strip() else ""
    return f'{requirement.strip()}; {own}extra == "{extra}"'


def _metadata(project):
    lines = [
        "Metadata-Version: 2.1",
        f"Name: {project['name']}",
        f"Version: {project['version']}",
    ]
    if "description" in project:
        lines.append(f"Summary: {project['description']}")
    if "requires-python" in project:
        lines.append(f"Requires-Python: {project['requires-python']}")
    lines += [f"Requires-Dist: {dep}" for dep in project.get("dependencies", [])]
    for extra, deps in project.get("optional-dependencies", {}).items():
        lines.append(f"Provides-Extra: {extra}")
        lines += [f"Requires-Dist: {_with_extra(dep, extra)}" for dep in deps]
    body = ""
    if "readme" in project:
        readme = project["readme"]
        if not (isinstance(readme, str) and readme.endswith(".md")):
            raise ValueError("cfbuild supports only a Markdown readme file name")
        lines.append("Description-Content-Type: text/markdown")
        body = "\n" + (ROOT / readme).read_text(encoding="utf-8")
    return "\n".join(lines) + "\n" + body


def _sources():
    """Python files under src/, as (path in the archive, path on disk)."""
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), path


def _write_wheel(wheel_directory, files):
    """Write files (archive path -> bytes) plus dist-info; return the file name."""
    project = _project()
    dist = _dist_name(project)
    info = f"{dist}.dist-info"
    files = dict(files)
    files[f"{info}/METADATA"] = _metadata(project).encode()
    files[f"{info}/WHEEL"] = (
        f"Wheel-Version: 1.0\nGenerator: cfbuild\nRoot-Is-Purelib: true\nTag: {TAG}\n"
    ).encode()
    scripts = project.get("scripts", {})
    if scripts:
        entries = "".join(f"{name} = {target}\n" for name, target in scripts.items())
        files[f"{info}/entry_points.txt"] = f"[console_scripts]\n{entries}".encode()
    record = []
    for arcname, data in files.items():
        digest = base64.urlsafe_b64encode(hashlib.sha256(data).digest()).rstrip(b"=")
        record.append(f"{arcname},sha256={digest.decode()},{len(data)}")
    record.append(f"{info}/RECORD,,")
    files[f"{info}/RECORD"] = ("\n".join(record) + "\n").encode()

    filename = f"{dist}-{TAG}.whl"
    with zipfile.ZipFile(Path(wheel_directory) / filename, "w") as zf:
        for arcname, data in files.items():
            entry = zipfile.ZipInfo(arcname, date_time=(1980, 1, 1, 0, 0, 0))
            entry.external_attr = 0o644 << 16
            zf.writestr(entry, data, compress_type=zipfile.ZIP_DEFLATED)
    return filename


def _requires(config_settings=None):
    return [] if sys.version_info >= (3, 11) else ["tomli"]


get_requires_for_build_wheel = _requires
get_requires_for_build_editable = _requires
get_requires_for_build_sdist = _requires


def build_wheel(wheel_directory, config_settings=None, metadata_directory=None):
    return _write_wheel(
        wheel_directory, {arcname: path.read_bytes() for arcname, path in _sources()}
    )


def build_editable(wheel_directory, config_settings=None, metadata_directory=None):
    pth = f"_{_file_name(_project())}_editable.pth"
    return _write_wheel(wheel_directory, {pth: f"{SRC}\n".encode()})


def build_sdist(sdist_directory, config_settings=None):
    project = _project()
    dist = _dist_name(project)

    def keep(member):
        return None if "__pycache__" in member.name else member

    filename = f"{dist}.tar.gz"
    with tarfile.open(Path(sdist_directory) / filename, "w:gz") as tf:
        for name in SDIST_MEMBERS:
            tf.add(ROOT / name, arcname=f"{dist}/{name}", filter=keep)
        pkg_info = _metadata(project).encode()
        member = tarfile.TarInfo(f"{dist}/PKG-INFO")
        member.size = len(pkg_info)
        member.mtime = int(time.time())
        tf.addfile(member, io.BytesIO(pkg_info))
    return filename
