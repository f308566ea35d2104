"""Typed errors raised across the tokenization pipeline."""


class SfcTokError(Exception):
    """Base class for all library errors."""


# config
class ConfigError(SfcTokError, ValueError):
    """An unknown config key, or a malformed or out-of-range value or argument."""


# core types
class EmptyCloud(SfcTokError):
    pass


class NonFiniteCoordinate(SfcTokError):
    def __init__(self, index):
        self.index = index
        super().__init__(f"non-finite coordinate at row {index}")


class NonFiniteFeature(SfcTokError):
    def __init__(self, index):
        self.index = index
        super().__init__(f"non-finite feature at row {index}")


class FeatureRowMismatch(SfcTokError):
    pass


class InvalidShape(SfcTokError):
    pass


# tokenizer
class WidthTooSmall(SfcTokError):
    pass


class ShapeMismatch(SfcTokError):
    pass


class EmptySuperpoint(SfcTokError):
    def __init__(self, label):
        self.label = label
        super().__init__(f"superpoint {label} has no points")


# enhancer
class CurveLengthMismatch(SfcTokError):
    pass


class CurveNotPermutation(CurveLengthMismatch):
    """A curve order that repeats or misses a token, or names one out of range."""


# graph
class InvalidVoteIds(SfcTokError):
    pass


# merger
class DimensionMismatch(SfcTokError):
    pass


class RankTooLarge(SfcTokError):
    pass


class InvalidMarginals(SfcTokError):
    pass


class NonFiniteKernel(SfcTokError):
    pass


# gfm
class WidthMismatch(SfcTokError):
    pass


# io
class ParseError(SfcTokError):
    def __init__(self, message, offset=None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)


class UnsupportedProperty(SfcTokError):
    pass


class LengthMismatch(SfcTokError):
    pass


class InvalidPartition(SfcTokError):
    """Superpoint labels or centers that no stage can use."""


class InvalidWeights(SfcTokError):
    """A weights file array that is missing or does not form a layer stack."""


class NoValidSuperpoints(SfcTokError):
    pass


class SuggestLowerT(SfcTokError):
    pass


class StageError(SfcTokError):
    """Wraps a failure with the pipeline stage it occurred in."""

    def __init__(self, stage, cause):
        self.stage = stage
        self.cause = cause
        super().__init__(f"[{stage}] {cause}")
