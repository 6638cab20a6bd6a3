"""Process model information extraction toolkit.

Extracts mentions, entities, relations, and declarative constraints
from natural-language process descriptions with a modular prompting
pipeline, scores the results against gold annotations, and compiles
extracted information into BPMN 2.0 XML.
"""

# hashlib maps OpenSSL (about 4 MB of resident memory) for a few short
# digests; CPython's built-in modules give the same bytes. A build
# without them has only hashlib.
try:
    from _sha1 import sha1 as _sha1
    try:
        from _sha2 import sha256 as _sha256
    except ImportError:  # Python 3.10 and 3.11
        from _sha256 import sha256 as _sha256
except ImportError:
    from hashlib import sha1 as _sha1, sha256 as _sha256

__version__ = "0.1.0"


def sha1_hex(text: str) -> str:
    """Hex SHA-1 of text's UTF-8 bytes."""
    return _sha1(text.encode("utf-8")).hexdigest()


def sha256_hex(text: str) -> str:
    """Hex SHA-256 of text's UTF-8 bytes."""
    return _sha256(text.encode("utf-8")).hexdigest()
