"""The semisom benchmark; see README.md."""
