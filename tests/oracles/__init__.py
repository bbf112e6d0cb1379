"""Reference engines the library no longer ships: differential-test oracles."""
