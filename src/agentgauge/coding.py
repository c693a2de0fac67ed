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


def elias_gamma_decode(bits: str, start: int = 0) -> tuple[int, int]:
    """Decode one gamma codeword at `start`; return (value, bits consumed)."""
    zeros = 0
    i = start
    n = len(bits)
    while i < n and bits[i] == "0":
        zeros += 1
        i += 1
    if i >= n or i + zeros + 1 > n:
        raise InvalidProgramError("truncated Elias gamma header")
    value = int(bits[i : i + zeros + 1], 2)
    return value, 2 * zeros + 1


def bits_to_hex(bits: str) -> str:
    """Hex form of a bit string, right-padded with zero bits to nibbles."""
    if not bits:
        return ""
    padded = bits + "0" * (-len(bits) % 4)
    return "".join(f"{int(padded[i:i+4], 2):X}" for i in range(0, len(padded), 4))


def hex_to_bits(hex_digits: str, length: int) -> str:
    """Inverse of bits_to_hex for a known bit length."""
    if length == 0:
        return ""
    try:
        expanded = "".join(f"{int(ch, 16):04b}" for ch in hex_digits)
    except ValueError:
        raise ValueError(f"not a hex string: {hex_digits!r}") from None
    if len(expanded) < length:
        raise ValueError("hex string shorter than declared bit length")
    if any(b == "1" for b in expanded[length:]):
        raise ValueError("nonzero padding bits after declared length")
    return expanded[:length]


def format_program_line(bits: str) -> str:
    """One-per-line textual form of an encoded program: `len=13 hex=1A28`."""
    return f"len={len(bits)} hex={bits_to_hex(bits)}"


def parse_program_line(line: str) -> str:
    """Parse `len=<n> hex=<digits>` back into a bit string; ValueError if malformed."""
    try:
        fields = dict(part.split("=", 1) for part in line.split())
        length = int(fields["len"])
        hex_digits = fields["hex"] if length else fields.get("hex", "")
    except (KeyError, ValueError):
        raise ValueError(f"malformed program line {line!r}: "
                         f"expected len=<n> hex=<digits>") from None
    return hex_to_bits(hex_digits, length)
