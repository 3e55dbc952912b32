"""The fraud browser inventory of paper Table 1.

Engine versions reflect the Chromium build each product bundled around
its release date (Category 2 products ship a fixed engine; Sphere 1.3 is
the outlier, emulating a fingerprint similar to Chrome 61 — the reason
its recall is lowest in Table 5).
"""

from __future__ import annotations

from typing import Tuple

from repro.fraudbrowsers.base import Category, FraudBrowser

__all__ = ["FRAUD_BROWSERS", "fraud_browser"]

FRAUD_BROWSERS: Tuple[FraudBrowser, ...] = (
    FraudBrowser(
        "Linken Sphere", "8.93", Category.IMPOSSIBLE_FINGERPRINT, 100,
        "April 2022", leaked_globals=("__ls_profile", "lsphereConfig"),
    ),
    FraudBrowser(
        "ClonBrowser", "4.6.6", Category.IMPOSSIBLE_FINGERPRINT, 112,
        "May 2023", leaked_globals=("__clonbrowser__",),
    ),
    FraudBrowser("Incogniton", "3.2.7.7", Category.FIXED_ENGINE, 112, "May 2023"),
    FraudBrowser("GoLogin", "3.2.19", Category.FIXED_ENGINE, 112, "May 2023"),
    FraudBrowser("GoLogin", "3.3.23", Category.FIXED_ENGINE, 114, "June 2023"),
    FraudBrowser("CheBrowser", "0.3.38", Category.FIXED_ENGINE, 111, "May 2023"),
    FraudBrowser("VMLogin", "1.3.8.5", Category.FIXED_ENGINE, 110, "April 2023"),
    FraudBrowser("Octo Browser", "1.10", Category.FIXED_ENGINE, 114, "September 2023"),
    FraudBrowser(
        "Sphere", "1.3", Category.FIXED_ENGINE, 61, "November 2023",
        supports_custom_ua=False,
    ),
    FraudBrowser(
        "AntBrowser", "2023.05", Category.FIXED_ENGINE, 112, "May 2023",
        leaked_globals=("ANTBROWSER", "antBrowserProfile", "antBrowserVersion"),
    ),
    FraudBrowser("AdsPower", "4.12.27", Category.ENGINE_FOLLOWS_UA, 108, "December 2022"),
    FraudBrowser("AdsPower", "5.4.20", Category.ENGINE_FOLLOWS_UA, 112, "April 2023"),
)


def fraud_browser(full_name: str) -> FraudBrowser:
    """Look up a product by its ``Name-version`` label."""
    for browser in FRAUD_BROWSERS:
        if browser.full_name == full_name or browser.name == full_name:
            return browser
    raise KeyError(f"unknown fraud browser: {full_name!r}")
