"""The one base of the errors that bad or oversized input raises."""


class DataError(Exception):
    """Input the program cannot answer: a bad line, a join past its entry
    budget, an unusable calibration table or counts past int64. The CLI
    prints it as one `Error:` line with exit status 1; any other exception
    there is a bug."""
