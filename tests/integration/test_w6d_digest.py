"""The World IPv6 Day campaign's content digest, pinned.

The regular campaign has pinned digests for faults off, the transition
axis and heavy faults; the event-day campaign resolves against the DNS
as it stood at the event round, so it gets its own pin.  Serial-vs-
process parity alone would not notice both backends drifting together.
"""

from __future__ import annotations

#: seed-11 small-config W6D campaign, 24 thirty-minute rounds from Penn,
#: LU and UPCB (the ``small_w6d`` session fixture).
SMALL11_W6D_DIGEST = (
    "20aa613ce469acc56b9a4b7735772289de886811f45cd32be35f4fe4098d94ce"
)


def test_w6d_campaign_matches_pinned_digest(small_w6d):
    assert small_w6d.campaign.repository.content_digest() == SMALL11_W6D_DIGEST
