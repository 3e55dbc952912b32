"""User-agent string construction and parsing.

The paper's risk analysis (Algorithm 1) needs two things from a
user-agent: the *vendor* and the *major version*.  This module formats
realistic desktop user-agent strings for the browsers in scope and
parses them back, including the corner cases the paper calls out:

* Edge 79+ appends an ``Edg/`` token to an otherwise Chrome-identical
  string, while legacy Edge 17-19 uses ``Edge/`` with an EdgeHTML build
  number;
* Brave is *deliberately indistinguishable* from Chrome at the
  user-agent level — that is exactly why it shows up as a benign
  mismatch in the paper's data;
* Tor Browser reports the Firefox ESR user-agent it is built from.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Optional

__all__ = [
    "ParsedUserAgent",
    "UserAgentError",
    "Vendor",
    "format_user_agent",
    "parse_ua_key",
    "parse_user_agent",
    "ua_key",
]


class UserAgentError(ValueError):
    """Raised when a user-agent string cannot be interpreted."""


class Vendor(str, Enum):
    """Browser vendors distinguishable from the user-agent string."""

    CHROME = "chrome"
    EDGE = "edge"
    FIREFOX = "firefox"


# EdgeHTML build numbers shipped with legacy Edge releases.
_EDGEHTML_BUILDS = {17: 17134, 18: 17763, 19: 18363}

_WINDOWS_TOKEN = "Windows NT 10.0; Win64; x64"
_MACOS_TOKEN = "Macintosh; Intel Mac OS X 10_15_7"

_FIREFOX_RE = re.compile(r"\bFirefox/(\d+)\.")
_EDG_RE = re.compile(r"\bEdg/(\d+)\.")
_EDGEHTML_RE = re.compile(r"\bEdge/(\d+)\.")
_CHROME_RE = re.compile(r"\bChrome/(\d+)\.")


@dataclass(frozen=True)
class ParsedUserAgent:
    """Vendor + major version extracted from a user-agent string."""

    vendor: Vendor
    version: int
    raw: str

    def key(self) -> str:
        """Canonical short form, e.g. ``chrome-112`` (used as a label)."""
        return f"{self.vendor.value}-{self.version}"

    def display(self) -> str:
        """Human-readable form, e.g. ``Chrome 112``."""
        return f"{self.vendor.value.capitalize()} {self.version}"


def format_user_agent(
    vendor: Vendor, version: int, os_token: Optional[str] = None
) -> str:
    """Build a realistic desktop user-agent string.

    ``os_token`` defaults to Windows 10; pass
    ``"Macintosh; Intel Mac OS X 10_15_7"`` for the macOS experiments of
    Appendix-5.
    """
    vendor = Vendor(vendor)
    version = int(version)
    if version <= 0:
        raise UserAgentError(f"version must be positive, got {version}")
    os_part = os_token or _WINDOWS_TOKEN

    if vendor is Vendor.FIREFOX:
        return (
            f"Mozilla/5.0 ({os_part}; rv:{version}.0) "
            f"Gecko/20100101 Firefox/{version}.0"
        )
    webkit = (
        f"Mozilla/5.0 ({os_part}) AppleWebKit/537.36 "
        f"(KHTML, like Gecko) Chrome/{version}.0.0.0 Safari/537.36"
    )
    if vendor is Vendor.CHROME:
        return webkit
    # Edge: legacy EdgeHTML releases use the Edge/ token over a spoofed
    # Chrome 64; Chromium-based releases append Edg/.
    if version in _EDGEHTML_BUILDS:
        build = _EDGEHTML_BUILDS[version]
        return (
            f"Mozilla/5.0 ({os_part}) AppleWebKit/537.36 "
            f"(KHTML, like Gecko) Chrome/64.0.3282.140 Safari/537.36 "
            f"Edge/{version}.{build}"
        )
    return f"{webkit} Edg/{version}.0.0.0"


def parse_user_agent(raw: str) -> ParsedUserAgent:
    """Extract vendor and major version from a user-agent string.

    Token precedence matters: ``Edg``/``Edge`` must win over the
    ``Chrome`` token they embed, and ``Firefox`` wins over the ``Gecko``
    token present in WebKit strings.
    """
    if not raw or not raw.strip():
        raise UserAgentError("empty user-agent string")

    for pattern, vendor in (
        (_EDGEHTML_RE, Vendor.EDGE),
        (_EDG_RE, Vendor.EDGE),
        (_FIREFOX_RE, Vendor.FIREFOX),
        (_CHROME_RE, Vendor.CHROME),
    ):
        match = pattern.search(raw)
        if match:
            version = int(match.group(1))
            # A version-0 key would not parse back (parse_ua_key builds
            # its string with format_user_agent, which refuses 0), so
            # every path reads such a user-agent as unparseable.
            if version <= 0:
                raise UserAgentError(f"version must be positive in {raw[:120]!r}")
            return ParsedUserAgent(vendor, version, raw)
    raise UserAgentError(f"unrecognized user-agent: {raw[:120]!r}")


def ua_key(vendor: Vendor, version: int) -> str:
    """Short canonical label for a (vendor, version) pair."""
    return f"{Vendor(vendor).value}-{int(version)}"


def parse_ua_key(key: str) -> ParsedUserAgent:
    """Inverse of :func:`ua_key`; ``raw`` holds a synthesized UA string."""
    try:
        vendor_text, version_text = key.rsplit("-", 1)
        vendor = Vendor(vendor_text)
        version = int(version_text)
    except (ValueError, KeyError) as exc:
        raise UserAgentError(f"bad user-agent key: {key!r}") from exc
    return ParsedUserAgent(vendor, version, format_user_agent(vendor, version))
