_start:
	call nowhere
