"""Three-way transition classification (native / tunneled / translated)."""

from __future__ import annotations

from repro.analysis.classify import (
    TransitionKind,
    classify_transitions,
    sites_in_transition,
    transition_split,
)
from repro.monitor.database import TransitionObservation


def _add(db, site_id, round_idx, kind):
    db.add_transitions([TransitionObservation(site_id, round_idx, kind)])


class TestClassifyTransitions:
    def test_empty_database_classifies_nothing(self, db):
        assert classify_transitions(db.freeze()) == {}

    def test_latest_round_wins(self, db):
        # site 1 starts translated and adopts native IPv6 mid-campaign
        _add(db, 1, 0, "translated")
        _add(db, 2, 0, "native")
        _add(db, 1, 1, "translated")
        _add(db, 1, 2, "native")
        classes = classify_transitions(db.freeze())
        assert classes == {
            1: TransitionKind.NATIVE,
            2: TransitionKind.NATIVE,
        }

    def test_site_filter(self, db):
        _add(db, 1, 0, "translated")
        _add(db, 2, 0, "tunneled")
        _add(db, 3, 0, "native")
        classes = classify_transitions(db.freeze(), site_ids=[1, 3])
        assert sorted(classes) == [1, 3]

    def test_matches_database_latest_kind(self, db):
        _add(db, 1, 0, "tunneled")
        _add(db, 1, 1, "translated")
        classes = classify_transitions(db.freeze())
        latest = [o.kind for o in db.transitions if o.site_id == 1][-1]
        assert classes[1].value == latest


class TestAggregates:
    def test_split_keeps_zero_kinds(self, db):
        _add(db, 1, 0, "translated")
        _add(db, 2, 0, "translated")
        split = transition_split(classify_transitions(db.freeze()))
        assert split[TransitionKind.TRANSLATED] == 2
        assert split[TransitionKind.NATIVE] == 0
        assert split[TransitionKind.TUNNELED] == 0

    def test_sites_in_transition_sorted(self, db):
        _add(db, 9, 0, "translated")
        _add(db, 2, 0, "translated")
        _add(db, 5, 0, "native")
        classes = classify_transitions(db.freeze())
        assert sites_in_transition(classes, TransitionKind.TRANSLATED) == [2, 9]
        assert sites_in_transition(classes, TransitionKind.NATIVE) == [5]

    def test_str_form_matches_wire_kind(self):
        assert str(TransitionKind.TRANSLATED) == "translated"


class TestLiveCampaign:
    def test_dns64_campaign_is_mostly_translated(self, dns64_campaign):
        repo = dns64_campaign.repository
        name = repo.vantage_names[0]
        classes = classify_transitions(repo.database(name))
        assert classes
        split = transition_split(classes)
        # the miniature world's AAAA coverage is thin: most monitored
        # sites reach IPv6 only through the translator
        assert split[TransitionKind.TRANSLATED] > 0
