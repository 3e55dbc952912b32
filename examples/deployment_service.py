#!/usr/bin/env python3
"""Full deployment walkthrough: the FinOrg production shell.

Runs the whole operational loop the paper describes around the model:

1. train Browser Polygraph offline;
2. stand up the scoring service (validation -> verdict -> the serve log);
3. replay a day of live traffic as wire payloads, including garbage
   requests and fraud-browser sessions;
4. watch the flag-rate monitor and the quarantine log;
5. consult the drift scheduler for the next check date;
6. seal the log and export its /collect rows as the next training window.

Run:  python examples/deployment_service.py
"""

import tempfile
from datetime import date

from repro import BrowserPolygraph, CollectionScript, TrafficConfig, TrafficSimulator
from repro.browsers.profiles import BrowserProfile
from repro.browsers.useragent import Vendor, parse_user_agent
from repro.fingerprint.script import FingerprintPayload
from repro.fraudbrowsers import fraud_browser
from repro.fraudbrowsers.base import FraudProfile
from repro.service import (
    DriftScheduler,
    FlagRateMonitor,
    PayloadValidator,
    ScoringService,
    SegmentLog,
)


def main() -> None:
    print("training Browser Polygraph ...")
    training = TrafficSimulator(TrafficConfig(seed=7).scaled(40_000)).generate()
    polygraph = BrowserPolygraph().fit(training)
    print(f"  accuracy {polygraph.accuracy:.4f}")

    log = SegmentLog(tempfile.mkdtemp(prefix="polygraph-log-"))
    validator = PayloadValidator()
    service = ScoringService(polygraph, validator=validator, log=log)
    monitor = FlagRateMonitor(window=5_000, min_observations=500)
    script = CollectionScript()

    # --- replay a day of traffic -------------------------------------
    print("\nreplaying live traffic ...")
    day = date(2023, 6, 15)
    live = TrafficSimulator(TrafficConfig(seed=99).scaled(4_000)).generate()
    flagged_sessions = []
    for idx in range(len(live)):
        payload = FingerprintPayload(
            session_id=str(live.session_ids[idx]),
            user_agent=str(live.user_agents[idx]),
            values=tuple(int(v) for v in live.features[idx]),
            service_time_ms=0.0,
        )
        verdict = service.score_wire(payload.to_wire(), day=day)
        if verdict.accepted:
            monitor.observe(verdict.flagged)
        if verdict.actionable:
            flagged_sessions.append((verdict.session_id, verdict.risk_factor))

    # A hostile client fuzzes the endpoint; nothing reaches the model.
    for garbage in (b"", b"null", b'{"sid": "x"}', b"\xff" * 64, b"a" * 5000):
        service.score_wire(garbage)

    # A GoLogin operator replays a stolen Firefox profile.
    gologin = fraud_browser("GoLogin-3.3.23")
    victim_ua = BrowserProfile(Vendor.FIREFOX, 110).user_agent()
    profile = FraudProfile(gologin.full_name, parse_user_agent(victim_ua))
    payload = script.run(gologin.environment(profile), victim_ua, "attacker-001")
    verdict = service.score_wire(payload.to_wire(), day=day)
    print(
        f"  attacker session: flagged={verdict.flagged} "
        f"risk={verdict.risk_factor} latency={verdict.latency_ms:.2f}ms"
    )

    # --- operations dashboard ----------------------------------------
    print("\noperations dashboard:")
    print(f"  scored sessions : {service.scored_count}")
    print(f"  flagged         : {service.flagged_count} ({100 * service.flag_rate:.2f}%)")
    print(f"  monitor         : {monitor.describe()}")
    print(f"  quarantine      : {validator.quarantine.total_rejects} rejects "
          f"{validator.quarantine.counts()}")
    top = sorted(flagged_sessions, key=lambda item: -item[1])[:5]
    print("  top flagged     :", top)

    # --- what is next -------------------------------------------------
    scheduler = DriftScheduler()
    plan = scheduler.next_check(day)
    print(f"\nnext scheduled drift check: {plan.check_date} covering {plan.releases}")

    log.seal()
    exported = log.export_dataset()
    print(
        f"serve log holds {len(log.segments())} segment(s); exported dataset: "
        f"{len(exported)} rows x {exported.n_features} features "
        "(the next retraining window)"
    )


if __name__ == "__main__":
    main()
