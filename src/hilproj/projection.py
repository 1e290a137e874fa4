"""Alias of the projection functions of :mod:`hilproj.sets`, kept for its import path."""

from .sets import distance, project, project_sequence
