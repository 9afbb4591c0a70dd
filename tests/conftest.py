import warnings

# When a property test fails, hypothesis imports libcst to explain the
# failure, and that import raises mypy_extensions' TypedDict
# DeprecationWarning.  Under ``-W error`` the warning ends the run in
# INTERNALERROR before the falsifying example is printed, and a
# filterwarnings setting cannot help, since the command line's -W wins.
# So libcst is imported here first, with DeprecationWarning ignored for
# that import alone.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass
