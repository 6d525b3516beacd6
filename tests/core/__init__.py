"""Helpers shared by the analysis-core tests."""


def profile_state(store):
    """Every field of every profile of a ``ProfileStore``, keyed by
    fingerprint (records compared by fingerprint), so two stores built
    from separately decoded streams compare equal exactly when they
    hold the same population."""
    return {
        fingerprint: {
            key: (value.fingerprint if key == "record" else value)
            for key, value in vars(profile).items()
        }
        for fingerprint, profile in store.profiles.items()
    }
