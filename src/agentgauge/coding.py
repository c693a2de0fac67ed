"""Bit-string helpers: Elias gamma coding and the program fixture format.

Bit strings are plain Python strings of '0'/'1', most significant bit first.
The Elias gamma code is self-delimiting, which is what makes the program
encoding prefix-free.
"""

from __future__ import annotations

from .errors import InvalidProgramError


def elias_gamma_encode(value: int) -> str:
    """Encode a positive integer: (bitlength-1) zeros, then the binary digits."""
    if value < 1:
        raise ValueError("Elias gamma encodes positive integers only")
    binary = bin(value)[2:]
    return "0" * (len(binary) - 1) + binary


def elias_gamma_decode(bits: str) -> tuple[int, int]:
    """Decode the gamma codeword that starts `bits`; return (value, bits consumed)."""
    zeros = len(bits) - len(bits.lstrip("0"))
    consumed = 2 * zeros + 1
    if consumed > len(bits):
        raise InvalidProgramError("truncated Elias gamma header")
    return int(bits[zeros:consumed], 2), consumed


def bits_to_hex(bits: str) -> str:
    """Hex form of a bit string, right-padded with zero bits to nibbles."""
    if not bits:
        return ""
    padded = bits + "0" * (-len(bits) % 4)
    return "".join(f"{int(padded[i:i+4], 2):X}" for i in range(0, len(padded), 4))


def hex_to_bits(hex_digits: str, length: int) -> str:
    """Inverse of bits_to_hex for a known bit length."""
    try:
        expanded = "".join(f"{int(ch, 16):04b}" for ch in hex_digits)
    except ValueError:
        raise ValueError(f"not a hex string: {hex_digits!r}") from None
    if len(expanded) < length:
        raise ValueError("hex string shorter than declared bit length")
    if any(b == "1" for b in expanded[length:]):
        raise ValueError(f"nonzero padding bits after declared length {length}")
    return expanded[:length]


def format_program_line(bits: str) -> str:
    """One-per-line textual form of an encoded program: `len=13 hex=1A28`."""
    return f"len={len(bits)} hex={bits_to_hex(bits)}"


def parse_program_line(line: str) -> str:
    """Parse `len=<n> hex=<digits>` back into a bit string; ValueError if malformed.

    Each field appears once and no other field is allowed; `hex` may be left
    out only when `len` is 0.
    """
    expected = f"malformed program line {line!r}: expected len=<n> hex=<digits>"
    fields: dict[str, str] = {}
    for part in line.split():
        name, sep, value = part.partition("=")
        if not sep:
            raise ValueError(expected)
        if name not in ("len", "hex"):
            raise ValueError(f"unknown field {name!r} in program line {line!r}")
        if name in fields:
            raise ValueError(f"duplicate field {name!r} in program line {line!r}")
        fields[name] = value
    if "len" not in fields:
        raise ValueError(expected)
    if not (fields["len"].isascii() and fields["len"].isdigit()):
        raise ValueError(f"len must be a non-negative integer, got {fields['len']!r}")
    length = int(fields["len"])
    if length and "hex" not in fields:
        raise ValueError(expected)
    return hex_to_bits(fields.get("hex", ""), length)
