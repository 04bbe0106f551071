#!/usr/bin/env python3
"""Independent reader of the OCLR binary model format.

Checks `.oclr` files against docs/MODEL_FORMAT.md without any of the C++
code: the fixed header, the section table, the layout rules, and every
section checksum, recomputed with the hash the file's version names
(v3 and v4: XXH64 seed 0, v2: FNV-1a 64). A v4 file's row-major item
section (kind 1) must be empty; v2 and v3 files carry it in full. Both hashes are implemented here in
plain Python and checked against their reference vectors before any file
is read. Files are held to what a writer must emit, so reserved fields,
unknown flag bits and gap bytes must all be zero. Usage:

    python3 docs/check_model_format.py model.oclr [more.oclr ...]

Exit code 0 = every file conforms, 1 = a file does not (or a hash failed
its self-check), 2 = usage error.
"""

import struct
import sys

MASK64 = (1 << 64) - 1

MAGIC = b"OCLR"
ENDIAN_TAG = 0x0C0FFEE1
HEADER_BYTES = 64
ENTRY_BYTES = 32
SECTION_COUNT = 3
TABLE_END = HEADER_BYTES + SECTION_COUNT * ENTRY_BYTES  # 160
ALIGNMENT = 64
FIRST_SECTION = (TABLE_END + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT  # 192
KNOWN_FLAGS = 0b11  # bit 0 = bias extension, bit 1 = relative variant
MODEL_KINDS = (0, 1)  # OCuLaR probability, dot product

FNV_OFFSET = 14695981039346656037
FNV_PRIME = 1099511628211

XXH_P1 = 0x9E3779B185EBCA87
XXH_P2 = 0xC2B2AE3D27D4EB4F
XXH_P3 = 0x165667B19E3779F9
XXH_P4 = 0x85EBCA77C2B2AE63
XXH_P5 = 0x27D4EB2F165667C5


def fnv1a64(data):
    h = FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) & MASK64
    return h


def _rotl(x, r):
    return ((x << r) | (x >> (64 - r))) & MASK64


def _round(acc, lane):
    acc = (acc + lane * XXH_P2) & MASK64
    return (_rotl(acc, 31) * XXH_P1) & MASK64


def xxh64(data, seed=0):
    n = len(data)
    p = 0
    if n >= 32:
        v1 = (seed + XXH_P1 + XXH_P2) & MASK64
        v2 = (seed + XXH_P2) & MASK64
        v3 = seed
        v4 = (seed - XXH_P1) & MASK64
        p = n // 32 * 32
        for a, b, c, d in struct.iter_unpack("<4Q", data[:p]):
            v1 = _round(v1, a)
            v2 = _round(v2, b)
            v3 = _round(v3, c)
            v4 = _round(v4, d)
        h = (_rotl(v1, 1) + _rotl(v2, 7) + _rotl(v3, 12) + _rotl(v4, 18)) & MASK64
        for lane in (v1, v2, v3, v4):
            h = ((h ^ _round(0, lane)) * XXH_P1 + XXH_P4) & MASK64
    else:
        h = (seed + XXH_P5) & MASK64
    h = (h + n) & MASK64
    while n - p >= 8:
        (lane,) = struct.unpack_from("<Q", data, p)
        h = (_rotl(h ^ _round(0, lane), 27) * XXH_P1 + XXH_P4) & MASK64
        p += 8
    if n - p >= 4:
        (lane,) = struct.unpack_from("<I", data, p)
        h = (_rotl(h ^ ((lane * XXH_P1) & MASK64), 23) * XXH_P2 + XXH_P3) & MASK64
        p += 4
    while p < n:
        h = (_rotl(h ^ ((data[p] * XXH_P5) & MASK64), 11) * XXH_P1) & MASK64
        p += 1
    h ^= h >> 33
    h = (h * XXH_P2) & MASK64
    h ^= h >> 29
    h = (h * XXH_P3) & MASK64
    h ^= h >> 32
    return h


# The reference vectors MODEL_FORMAT.md pins; together they cover the
# 32-byte stripe loop and the 8-, 4- and 1-byte tails.
XXH64_VECTORS = [
    (b"", 0xEF46DB3751D8E999),
    (b"a", 0xD24EC4F1A98C6E5B),
    (b"abc", 0x44BC2CF5AD770999),
    (b"hello world", 0x45AB6734B21E6968),
    (b"Nobody inspects the spammish repetition", 0xFBCEA83C8A378BF1),
    (b"The quick brown fox jumps over the lazy dog", 0x0B242D361FDA71BC),
]
FNV1A64_VECTORS = [
    (b"", 0xCBF29CE484222325),
    (b"a", 0xAF63DC4C8601EC8C),
    (b"foobar", 0x85944171F73967E8),
]

CHECKSUMS = {2: ("FNV-1a 64", fnv1a64), 3: ("XXH64", xxh64),
             4: ("XXH64", xxh64)}


def self_check():
    errors = []
    for name, fn, vectors in (("XXH64", xxh64, XXH64_VECTORS),
                              ("FNV-1a 64", fnv1a64, FNV1A64_VECTORS)):
        for data, want in vectors:
            got = fn(data)
            if got != want:
                errors.append(f"{name}({data!r}) = {got:016x}, want {want:016x}")
    return errors


def check_file(path):
    """Returns (errors, summary) for the file at `path`."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < TABLE_END:
        return [f"{len(data)} bytes, smaller than the {TABLE_END}-byte header"], ""
    errors = []
    if data[:4] != MAGIC:
        return [f"magic {data[:4]!r}, want {MAGIC!r}"], ""
    version, endian, kind, k, n_users, n_items, flags = struct.unpack_from("<7I", data, 4)
    algo = data[40:56]
    count, reserved = struct.unpack_from("<2I", data, 56)
    if version not in CHECKSUMS:
        return [f"version {version}; readers accept 2, 3 and 4"], ""
    if endian != ENDIAN_TAG:
        errors.append(f"endianness tag {endian:#010x}, want {ENDIAN_TAG:#010x}")
    if kind not in MODEL_KINDS:
        errors.append(f"model kind {kind} is neither 0 nor 1")
    if k == 0:
        errors.append("k is 0")
    if flags & ~KNOWN_FLAGS:
        errors.append(f"unknown flag bits {flags & ~KNOWN_FLAGS:#x}")
    tag = algo.split(b"\0", 1)[0]
    if len(tag) == len(algo) or algo[len(tag):].strip(b"\0"):
        errors.append("algorithm tag is not NUL-padded to 16 bytes")
    if count != SECTION_COUNT:
        errors.append(f"section count {count}, want {SECTION_COUNT}")
    if reserved != 0:
        errors.append("reserved header word is not 0")
    if errors:
        return errors, ""

    # v4 keeps section 1 (row-major item factors) as an empty entry.
    row_major_items = n_items * k * 8 if version < 4 else 0
    expected = {0: n_users * k * 8, 1: row_major_items, 2: k * n_items * 8}
    hash_name, hash_fn = CHECKSUMS[version]
    sections = {}
    for i in range(SECTION_COUNT):
        base = HEADER_BYTES + i * ENTRY_BYTES
        s_kind, s_reserved, offset, length, checksum = struct.unpack_from(
            "<2I3Q", data, base)
        where = f"table entry {i} (section {s_kind})"
        if s_kind >= SECTION_COUNT or s_kind in sections:
            errors.append(f"{where}: unknown or repeated section kind")
            continue
        if s_reserved != 0:
            errors.append(f"{where}: reserved word is not 0")
        if offset % ALIGNMENT:
            errors.append(f"{where}: offset {offset} is not 64-byte aligned")
        if length != expected[s_kind]:
            errors.append(f"{where}: length {length}, header dimensions say "
                          f"{expected[s_kind]}")
        if offset + length > len(data):
            errors.append(f"{where}: ends at {offset + length}, past the "
                          f"{len(data)}-byte file")
            continue
        if length and offset < FIRST_SECTION:
            errors.append(f"{where}: starts at {offset}, inside the header "
                          f"(< {FIRST_SECTION})")
        got = hash_fn(data[offset:offset + length])
        if got != checksum:
            errors.append(f"{where}: {hash_name} {got:016x}, table records "
                          f"{checksum:016x}")
        sections[s_kind] = (offset, length)

    spans = sorted(span for span in sections.values() if span[1])
    for (a_off, a_len), (b_off, _) in zip(spans, spans[1:]):
        if a_off + a_len > b_off:
            errors.append(f"sections at {a_off} and {b_off} overlap")
    cursor = TABLE_END
    for offset, length in spans + [(len(data), 0)]:
        if data[cursor:offset].strip(b"\0"):
            errors.append(f"nonzero gap bytes in [{cursor}, {offset})")
        cursor = max(cursor, offset + length)

    summary = (f"v{version} {tag.decode(errors='replace')} k={k} "
               f"users={n_users} items={n_items}, checksums {hash_name}")
    return errors, summary


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failures = self_check()
    for line in failures:
        print(f"self-check: {line}")
    for path in argv[1:]:
        errors, summary = check_file(path)
        if errors:
            failures += errors
            for line in errors:
                print(f"{path}: {line}")
        else:
            print(f"{path}: ok ({summary})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
